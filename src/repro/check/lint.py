"""``repro-lint`` — static protocol lint for this codebase.

Custom AST rules encoding contracts the paper (and our determinism story)
relies on but Python cannot enforce:

R001  Only BUF may invoke the five ACM procedure calls (``new_block``,
      ``block_gone``, ``block_accessed``, ``replace_block``,
      ``placeholder_used``).  The paper's Section 4 defines them as the
      *entire* BUF→ACM interface; sim/harness/workload code reaching
      around BUF would corrupt pool bookkeeping invisibly.
R002  No wall clock and no unseeded RNG in the deterministic core
      (``repro/{core,sim,disk,fs}``): service times are expected values
      and "the only randomness in the repository lives in seeded workload
      generators".
R003  Every policy registered in ``repro/policies/registry.py`` subclasses
      :class:`~repro.policies.base.EvictionPolicy` and implements the
      required hooks (``_on_hit``, ``_on_insert``, ``_choose_victim``).
R004  No mutable default arguments anywhere; configuration dataclasses in
      ``repro/{core,disk,kernel}`` (``*Params``/``*Limits``/``*Config``/
      ``*Policy``) must be frozen — simulations share them across runs.
R005  :mod:`repro.sim.ops` primitives are *data*: only the kernel
      (``repro/kernel/system.py``) and the trace recorder may interpret
      them (isinstance dispatch).  Everything else yields them.
R006  Within ``repro/server`` only the service layer
      (``repro/server/service.py``) may import ``repro.kernel`` or
      ``repro.core``: handlers, sessions and transports stay
      protocol-only, so every kernel mutation funnels through the single
      serialized service gate.
R007  Code under ``repro/`` outside ``repro/faults`` may not raise bare
      ``OSError``/``IOError``: simulated I/O failures must use the typed
      exceptions of :mod:`repro.faults.errors`, so recovery code can tell
      an injected fault from a real host-filesystem problem.  (Catching
      OS errors from genuine host I/O remains fine.)
R008  Instrumentation goes through :mod:`repro.telemetry`: library code
      under ``repro/`` may not keep ad-hoc counter dicts (string-literal-
      keyed ``x["hits"] += 1`` bumps) and may not ``print()``.  Counters
      belong in the metrics registry (or a named attribute on a stats
      class); human output belongs to the CLI layers (``repro/harness``,
      ``repro/check``, the serve/metrics entry points), which are exempt.
R009  Within ``repro/cluster`` only the supervisor may instantiate
      ``CacheDaemon`` — a shard built anywhere else would be invisible to
      the ring, the health loop and the cluster telemetry.  (Wire verbs
      need no rule: ``repro/server/protocol.py`` declares each one once,
      in its ``VERBS`` table, and derives every verb set from it.)
R010  Suppression and baseline hygiene (see :mod:`repro.check.manager`):
      ``# repro: allow(...)`` comments must name valid rules and give a
      reason, and baseline entries must still match a live finding.
R014  Workload generators are reproducible: under ``repro/workloads/``
      every random draw goes through a seeded ``random.Random`` instance
      — the module-level ``random.*`` functions (and an unseeded
      ``random.Random()``) are banned, because one stray draw makes
      "identical seeds ⇒ identical reference streams" silently false.
      And the production pattern kit stays discoverable: every concrete
      ``*Pattern`` class, ``Workload`` subclass and ``*_profile``
      factory in ``repro/workloads/production.py`` must be referenced
      from the ``WORKLOADS``/``PATTERNS``/``PROFILES`` dicts of
      ``repro/workloads/registry.py``.

The flow-sensitive passes F001–F005 (await-atomicity, blocking calls in
``async def``, task leaks, wire-param taint, lock discipline) live in
:mod:`repro.check.flow` and run over ``repro/server``, ``repro/cluster``
and ``repro/fs``; all rules share one parse per file through the pass
manager in :mod:`repro.check.manager`.

Usage::

    repro-lint src/                      # lint a source tree containing repro/
    repro-lint src/repro/core            # or any file/subpackage inside it
    repro-lint src/ benchmarks/          # include the benchmark modules
    repro-lint --select F001,F005 src/   # only some rules
    repro-lint --format github --json findings.json src/
    python -m repro.check.lint src/

Exit status: 0 clean, 1 findings, 2 analyzer error (bad path, crash).
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.check.flow.passes import in_flow_dirs, run_flow_passes
from repro.check.manager import (
    BASELINE_RELPATH,
    FileContext,
    Finding,
    LintResult,
    PassManager,
    render_github,
    render_text,
    result_json,
    write_baseline,
)

ACM_PROCEDURES = frozenset(
    {"new_block", "block_gone", "block_accessed", "replace_block", "placeholder_used"}
)
#: Modules allowed to speak the BUF→ACM protocol: BUF itself, the ACM and
#: its upcall variant (which forwards the calls to user-level handlers),
#: and the VM page cache, which is the BUF of the virtual-memory system.
ACM_CALLERS = frozenset(
    {
        "repro/core/buffercache.py",
        "repro/core/acm.py",
        "repro/core/upcall.py",
        "repro/vm/clock.py",
    }
)

#: The deterministic core: no wall clock, no unseeded randomness.
DETERMINISTIC_DIRS = ("repro/core/", "repro/sim/", "repro/disk/", "repro/fs/")
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    }
)

#: Dirs whose config dataclasses must be frozen, and the name suffixes
#: that mark a dataclass as configuration.
CONFIG_DIRS = ("repro/core/", "repro/disk/", "repro/kernel/")
CONFIG_SUFFIXES = ("Params", "Limits", "Config", "Policy")

OP_CLASSES = frozenset(
    {"Compute", "BlockRead", "BlockWrite", "Control", "CreateFile", "DeleteFile", "Fork"}
)
#: Modules allowed to *interpret* sim ops (rather than just construct them).
OP_CONSUMERS = frozenset(
    {"repro/kernel/system.py", "repro/trace/recorder.py", "repro/sim/ops.py"}
)

POLICY_HOOKS = ("_on_hit", "_on_insert", "_choose_victim")
POLICY_BASE = "EvictionPolicy"

#: The server package and its single kernel gate (R006): everything else
#: in the package speaks the wire protocol only.
SERVER_DIR = "repro/server/"
SERVER_KERNEL_GATE = "repro/server/service.py"
SERVER_FORBIDDEN_MODULES = ("repro.kernel", "repro.core")

#: R007: the fault package owns the typed simulated-I/O exceptions; the
#: rest of the tree may not fake I/O failures with bare OS errors.
FAULTS_DIR = "repro/faults/"
BARE_IO_EXCEPTIONS = frozenset({"OSError", "IOError"})

#: R008: counters live in the telemetry registry; only the telemetry
#: package itself may build raw string-keyed counter bumps.
COUNTER_DICT_EXEMPT_DIRS = ("repro/telemetry/",)
#: ...and print() is reserved for the CLI/report layers.
PRINT_EXEMPT_DIRS = ("repro/telemetry/", "repro/harness/", "repro/check/")
PRINT_EXEMPT_FILES = frozenset(
    # serve/cluster CLI status lines
    {"repro/server/daemon.py", "repro/cluster/cli.py"}
)

#: R009: the cluster's single daemon factory.
CLUSTER_DIR = "repro/cluster/"
CLUSTER_DAEMON_FACTORY = "repro/cluster/supervisor.py"

#: R014: the workload generators are the one place the repository *does*
#: allow randomness — and only through seeded random.Random instances.
WORKLOADS_DIR = "repro/workloads/"
#: ...and the production pattern kit must stay reachable through the
#: workload registry's dict literals.
WORKLOAD_PATTERN_MODULE = "repro/workloads/production.py"
WORKLOAD_REGISTRY = "repro/workloads/registry.py"
WORKLOAD_REGISTRY_DICTS = ("WORKLOADS", "PATTERNS", "PROFILES")
WORKLOAD_PATTERN_SUFFIX = "Pattern"
WORKLOAD_PROFILE_SUFFIX = "_profile"


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _in_dirs(relpath: str, dirs: Sequence[str]) -> bool:
    return any(relpath.startswith(d) for d in dirs)


MUTABLE_DEFAULT_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})


def _local_dict_names(func: ast.AST) -> Set[str]:
    """Locals assigned a fresh dict (``d = {}`` / ``d = dict()``) in ``func``."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        fresh = isinstance(value, ast.Dict) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "dict"
        )
        if not fresh:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


class _FileLinter(ast.NodeVisitor):
    """Runs the per-file rules (R001, R002, R004–R009 and the RNG half of
    R014) over one module."""

    def __init__(self, relpath: str, file_path: str = "") -> None:
        self.relpath = relpath
        self.file_path = file_path
        self.findings: List[Finding] = []
        #: per-enclosing-function sets of locals bound to fresh dicts —
        #: scratch dicts a function assembles and returns are not the
        #: long-lived ad-hoc counters R008 is about
        self._local_dicts: List[Set[str]] = []

    def _add(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(rule, self.relpath, node.lineno, message, self.file_path))

    def _is_local_dict(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Name)
            and any(node.id in names for names in self._local_dicts)
        )

    # R001 / R002 -------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ACM_PROCEDURES:
            if self.relpath not in ACM_CALLERS:
                self._add(
                    "R001",
                    node,
                    f"call to ACM procedure '{func.attr}' outside BUF — the five "
                    "BUF↔ACM calls may only be made by the buffer cache "
                    "(repro/core/buffercache.py and peers)",
                )
        if _in_dirs(self.relpath, DETERMINISTIC_DIRS):
            dotted = _dotted(func)
            if dotted is not None:
                tail = ".".join(dotted.split(".")[-2:])
                if tail in WALL_CLOCK_CALLS:
                    self._add(
                        "R002",
                        node,
                        f"wall-clock call '{dotted}' in the deterministic core — "
                        "simulated time comes from the engine",
                    )
                elif dotted.startswith("random.") and dotted.count(".") == 1:
                    if not (dotted == "random.Random" and (node.args or node.keywords)):
                        self._add(
                            "R002",
                            node,
                            f"'{dotted}' uses the unseeded module-level RNG — "
                            "construct random.Random(seed) instead",
                        )
        if self.relpath.startswith(WORKLOADS_DIR):
            dotted = _dotted(func)
            if (
                dotted is not None
                and dotted.startswith("random.")
                and dotted.count(".") == 1
                and not (dotted == "random.Random" and (node.args or node.keywords))
            ):
                self._add(
                    "R014",
                    node,
                    f"'{dotted}' draws from the unseeded module-level RNG in a "
                    "workload generator — all randomness in repro/workloads "
                    "goes through a seeded random.Random(seed), or identical "
                    "seeds stop reproducing identical streams",
                )
        if (
            isinstance(func, ast.Name)
            and func.id == "print"
            and self.relpath.startswith("repro/")
            and not _in_dirs(self.relpath, PRINT_EXEMPT_DIRS)
            and self.relpath not in PRINT_EXEMPT_FILES
        ):
            self._add(
                "R008",
                node,
                "print() in library code — human output belongs to the CLI "
                "layers; instrumentation goes through repro.telemetry",
            )
        if self.relpath.startswith(CLUSTER_DIR) and self.relpath != CLUSTER_DAEMON_FACTORY:
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "CacheDaemon":
                self._add(
                    "R009",
                    node,
                    "CacheDaemon instantiated outside the supervisor — within "
                    "repro/cluster only supervisor.py builds shard daemons, so "
                    "the ring, the health loop and the cluster telemetry always "
                    "know the shard exists",
                )
        if (
            isinstance(func, ast.Name)
            and func.id == "isinstance"
            and len(node.args) == 2
            and self.relpath not in OP_CONSUMERS
        ):
            classes = node.args[1]
            names: List[ast.expr] = list(classes.elts) if isinstance(classes, ast.Tuple) else [classes]
            for cls in names:
                name = cls.attr if isinstance(cls, ast.Attribute) else getattr(cls, "id", None)
                if name in OP_CLASSES:
                    self._add(
                        "R005",
                        node,
                        f"isinstance dispatch on sim op '{name}' outside the kernel — "
                        "ops are consumed via the engine (repro/kernel/system.py)",
                    )
        self.generic_visit(node)

    # R006: server package layering -------------------------------------

    def _check_server_import(self, node: ast.AST, module: Optional[str]) -> bool:
        if module is None:
            return False
        if not self.relpath.startswith(SERVER_DIR) or self.relpath == SERVER_KERNEL_GATE:
            return False
        if any(
            module == gated or module.startswith(gated + ".")
            for gated in SERVER_FORBIDDEN_MODULES
        ):
            self._add(
                "R006",
                node,
                f"import of '{module}' outside the service gate — within "
                "repro/server only service.py may call into repro.kernel/"
                "repro.core; handlers and transports stay protocol-only",
            )
            return True
        return False

    def _resolve_relative(self, node: ast.ImportFrom) -> Optional[str]:
        """The absolute module a relative import refers to, given where
        this file sits in the tree (``from ..core import acm`` inside
        repro/server/ is still repro.core)."""
        package = self.relpath.rsplit("/", 1)[0].split("/")
        if node.level > len(package):
            return None
        base = package[: len(package) - (node.level - 1)]
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_server_import(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = self._resolve_relative(node) if node.level else node.module
        if not self._check_server_import(node, module) and module is not None:
            # ``from repro import core`` smuggles the package in under a
            # bare name; check each imported name as a module path too.
            for alias in node.names:
                self._check_server_import(node, f"{module}.{alias.name}")
        self.generic_visit(node)

    # R007: no bare OSError/IOError for simulated I/O --------------------

    def visit_Raise(self, node: ast.Raise) -> None:
        if self.relpath.startswith("repro/") and not self.relpath.startswith(FAULTS_DIR):
            exc = node.exc
            name: Optional[str] = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in BARE_IO_EXCEPTIONS:
                self._add(
                    "R007",
                    node,
                    f"raise of bare '{name}' outside repro/faults — simulated "
                    "I/O failures must use the typed exceptions of "
                    "repro.faults.errors (InjectedIOError and friends)",
                )
        self.generic_visit(node)

    # R008: ad-hoc counter dicts ----------------------------------------

    def _counter_dicts_banned(self) -> bool:
        return self.relpath.startswith("repro/") and not _in_dirs(
            self.relpath, COUNTER_DICT_EXEMPT_DIRS
        )

    @staticmethod
    def _str_subscript(node: ast.expr) -> Optional[str]:
        """The literal key of ``x["key"]``, else None."""
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            return node.slice.value
        return None

    @staticmethod
    def _is_number(node: ast.expr) -> bool:
        return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        key = self._str_subscript(node.target)
        if (
            self._counter_dicts_banned()
            and key is not None
            and isinstance(node.op, ast.Add)
            and self._is_number(node.value)
            and not self._is_local_dict(node.target.value)
        ):
            self._add(
                "R008",
                node,
                f"ad-hoc counter bump on string key '{key}' — counters belong "
                "in the repro.telemetry registry (or a named attribute on a "
                "stats class)",
            )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # x["k"] = x.get("k", 0) + 1 — the defaulting twin of the += bump.
        # Only the self-referential form with a constant addend counts: the
        # receiver of .get() must be the assignment target itself, so dict
        # merges like out["hits"] = out.get("hits", 0) + shard["hits"] (an
        # aggregation, not a counter) stay legal.
        if self._counter_dicts_banned() and isinstance(node.value, ast.BinOp):
            target = next(
                (
                    t
                    for t in node.targets
                    if self._str_subscript(t) is not None and isinstance(t.value, ast.Name)
                ),
                None,
            )
            if target is not None and isinstance(node.value.op, ast.Add):
                key = self._str_subscript(target)
                sides = (node.value.left, node.value.right)
                self_get = any(
                    isinstance(side, ast.Call)
                    and isinstance(side.func, ast.Attribute)
                    and side.func.attr in ("get", "setdefault")
                    and isinstance(side.func.value, ast.Name)
                    and side.func.value.id == target.value.id
                    for side in sides
                )
                constant_addend = any(self._is_number(side) for side in sides)
                if self_get and constant_addend and not self._is_local_dict(target.value):
                    self._add(
                        "R008",
                        node,
                        f"ad-hoc counter bump on string key '{key}' — counters "
                        "belong in the repro.telemetry registry (or a named "
                        "attribute on a stats class)",
                    )
        self.generic_visit(node)

    # R004: mutable defaults --------------------------------------------

    def _check_defaults(self, node) -> None:
        if not self.relpath.startswith("repro/"):
            return  # helper scripts and test scaffolding are out of scope
        args = node.args
        for default in list(args.defaults) + [d for d in args.kw_defaults if d is not None]:
            bad = isinstance(default, MUTABLE_DEFAULT_NODES) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in MUTABLE_CONSTRUCTORS
            )
            if bad:
                self._add(
                    "R004",
                    default,
                    f"mutable default argument in '{node.name}' — default objects are "
                    "shared across calls; use None and create inside",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._local_dicts.append(_local_dict_names(node))
        self.generic_visit(node)
        self._local_dicts.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._local_dicts.append(_local_dict_names(node))
        self.generic_visit(node)
        self._local_dicts.pop()

    # R004: frozen config dataclasses -----------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if _in_dirs(self.relpath, CONFIG_DIRS) and node.name.endswith(CONFIG_SUFFIXES):
            for deco in node.decorator_list:
                if isinstance(deco, ast.Name) and deco.id == "dataclass":
                    frozen = False
                elif (
                    isinstance(deco, ast.Call)
                    and _dotted(deco.func) in ("dataclass", "dataclasses.dataclass")
                ):
                    frozen = any(
                        kw.arg == "frozen"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                        for kw in deco.keywords
                    )
                else:
                    continue
                if not frozen:
                    self._add(
                        "R004",
                        node,
                        f"config dataclass '{node.name}' is not frozen — shared "
                        "configuration must be immutable (@dataclass(frozen=True))",
                    )
        self.generic_visit(node)


def _rules_pass(ctx: FileContext) -> List[Finding]:
    """R001/R002/R004–R009 and the RNG half of R014 over one parsed
    module."""
    linter = _FileLinter(ctx.relpath, ctx.file_path)
    linter.visit(ctx.tree)
    return linter.findings


def _flow_pass(ctx: FileContext) -> List[Finding]:
    """F001–F005 over the async layer (repro/server, cluster, fs)."""
    if not in_flow_dirs(ctx.relpath):
        return []
    seen = set()
    findings: List[Finding] = []
    for rule, line, message in run_flow_passes(ctx.tree, ctx.relpath):
        key = (rule, line, message)
        if key in seen:
            continue
        seen.add(key)
        findings.append(Finding(rule, ctx.relpath, line, message, ctx.file_path))
    return findings


def _policy_pass(root: Path, contexts: List[FileContext]) -> List[Finding]:
    return check_policy_registry(root)


def _workloads_pass(root: Path, contexts: List[FileContext]) -> List[Finding]:
    return check_workload_registry(root)


def default_manager() -> PassManager:
    """The full pass set ``repro-lint`` runs: R-rules + F-passes."""
    return PassManager(
        file_passes=[_rules_pass, _flow_pass],
        tree_passes=[_policy_pass, _workloads_pass],
    )


def lint_source(source: str, relpath: str) -> List[Finding]:
    """Run every file-scoped rule over ``source`` as if it lived at
    ``relpath`` (a path relative to the source root, e.g.
    ``repro/core/acm.py``).  Inline suppressions apply; no baseline."""
    ctx = FileContext(relpath, source)
    findings, _suppressed = default_manager().run_file(ctx)
    return findings


# -- R003: the policy registry (cross-file) ------------------------------


class _ClassInfo:
    __slots__ = ("name", "bases", "methods", "relpath", "line")

    def __init__(self, name: str, bases: List[str], methods: Set[str], relpath: str, line: int):
        self.name = name
        self.bases = bases
        self.methods = methods
        self.relpath = relpath
        self.line = line


def _class_table(policies_dir: Path, root: Path) -> Dict[str, _ClassInfo]:
    table: Dict[str, _ClassInfo] = {}
    for path in sorted(policies_dir.glob("*.py")):
        relpath = path.relative_to(root).as_posix()
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = [b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", "") for b in node.bases]
                methods = {
                    item.name
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                table[node.name] = _ClassInfo(node.name, bases, methods, relpath, node.lineno)
    return table


def _registered_factories(registry_path: Path) -> List[Tuple[str, str, int]]:
    """The ``(key, class_name, line)`` entries of POLICY_FACTORIES."""
    tree = ast.parse(registry_path.read_text(), filename=str(registry_path))
    entries: List[Tuple[str, str, int]] = []
    for node in ast.walk(tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        named = any(isinstance(t, ast.Name) and t.id == "POLICY_FACTORIES" for t in targets)
        if not named or not isinstance(value, ast.Dict):
            continue
        for key, val in zip(value.keys, value.values):
            key_name = key.value if isinstance(key, ast.Constant) else "?"
            cls = val.attr if isinstance(val, ast.Attribute) else getattr(val, "id", None)
            if cls is not None:
                entries.append((str(key_name), cls, val.lineno))
    return entries


def check_policy_registry(root: Path) -> List[Finding]:
    """R003 over ``<root>/repro/policies`` (``root`` is the source root)."""
    policies_dir = root / "repro" / "policies"
    registry = policies_dir / "registry.py"
    if not registry.exists():
        return []
    rel_registry = registry.relative_to(root).as_posix()
    table = _class_table(policies_dir, root)
    findings: List[Finding] = []
    entries = _registered_factories(registry)
    if not entries:
        findings.append(
            Finding("R003", rel_registry, 1, "POLICY_FACTORIES dict literal not found")
        )
        return findings
    for key, cls_name, line in entries:
        info = table.get(cls_name)
        if info is None:
            findings.append(
                Finding(
                    "R003",
                    rel_registry,
                    line,
                    f"registered policy '{key}' -> {cls_name} is not a class "
                    "defined in repro/policies",
                )
            )
            continue
        # Walk the base chain inside the package.
        chain: List[_ClassInfo] = []
        seen: Set[str] = set()
        cursor: Optional[_ClassInfo] = info
        reaches_base = False
        while cursor is not None and cursor.name not in seen:
            seen.add(cursor.name)
            chain.append(cursor)
            nxt = None
            for base in cursor.bases:
                if base == POLICY_BASE:
                    reaches_base = True
                elif base in table:
                    nxt = table[base]
            cursor = nxt
        if not reaches_base:
            findings.append(
                Finding(
                    "R003",
                    info.relpath,
                    info.line,
                    f"policy '{key}' ({cls_name}) does not subclass {POLICY_BASE}",
                )
            )
        implemented = set().union(*(c.methods for c in chain))
        missing = [hook for hook in POLICY_HOOKS if hook not in implemented]
        if missing:
            findings.append(
                Finding(
                    "R003",
                    info.relpath,
                    info.line,
                    f"policy '{key}' ({cls_name}) is missing required hooks: "
                    + ", ".join(missing),
                )
            )
    return findings


# -- R014: the production pattern kit is registered (cross-file) ----------


def check_workload_registry(root: Path) -> List[Finding]:
    """R014 (registry half): every concrete ``*Pattern`` class, Workload
    subclass and ``*_profile`` factory defined in the production module
    must be referenced from the workload registry's dict literals —
    otherwise the pattern exists but no profile name or CLI flag can
    reach it."""
    production = root / Path(WORKLOAD_PATTERN_MODULE)
    registry = root / Path(WORKLOAD_REGISTRY)
    if not production.exists() or not registry.exists():
        return []
    try:
        prod_tree = ast.parse(production.read_text(), filename=str(production))
        reg_tree = ast.parse(registry.read_text(), filename=str(registry))
    except (OSError, SyntaxError):
        return []
    rel_production = production.relative_to(root).as_posix()
    rel_registry = registry.relative_to(root).as_posix()

    classes: Dict[str, Tuple[List[str], int]] = {}
    factories: Dict[str, int] = {}
    for node in prod_tree.body:  # top level only: helpers may nest freely
        if isinstance(node, ast.ClassDef):
            bases = [
                b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", "")
                for b in node.bases
            ]
            classes[node.name] = (bases, node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.endswith(WORKLOAD_PROFILE_SUFFIX) and not node.name.startswith("_"):
                factories[node.name] = node.lineno
    in_file_bases = {
        base for bases, _ in classes.values() for base in bases if base in classes
    }

    referenced: Set[str] = set()
    dicts_seen: Set[str] = set()
    for node in ast.walk(reg_tree):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        named = [
            t.id
            for t in targets
            if isinstance(t, ast.Name) and t.id in WORKLOAD_REGISTRY_DICTS
        ]
        if not named or not isinstance(value, ast.Dict):
            continue
        dicts_seen.update(named)
        for entry in value.values:
            for sub in ast.walk(entry):
                if isinstance(sub, ast.Name):
                    referenced.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    referenced.add(sub.attr)

    missing_dicts = sorted(set(WORKLOAD_REGISTRY_DICTS) - dicts_seen)
    if missing_dicts:
        return [
            Finding(
                "R014",
                rel_registry,
                1,
                "workload registry is missing the "
                + "/".join(missing_dicts)
                + " dict literal(s) the production pattern kit registers into",
            )
        ]

    findings: List[Finding] = []
    for name, (bases, line) in sorted(classes.items()):
        concrete_pattern = (
            name.endswith(WORKLOAD_PATTERN_SUFFIX) and name not in in_file_bases
        )
        is_workload = "Workload" in bases
        if (concrete_pattern or is_workload) and name not in referenced:
            what = "workload class" if is_workload else "pattern class"
            findings.append(
                Finding(
                    "R014",
                    rel_production,
                    line,
                    f"{what} '{name}' is not referenced from the "
                    "WORKLOADS/PATTERNS/PROFILES dicts in "
                    f"{WORKLOAD_REGISTRY} — unregistered generators are "
                    "unreachable from profiles and the CLI",
                )
            )
    for name, line in sorted(factories.items()):
        if name not in referenced:
            findings.append(
                Finding(
                    "R014",
                    rel_production,
                    line,
                    f"profile factory '{name}' is not referenced from the "
                    "WORKLOADS/PATTERNS/PROFILES dicts in "
                    f"{WORKLOAD_REGISTRY} — unregistered generators are "
                    "unreachable from profiles and the CLI",
                )
            )
    return findings


# -- tree driver ---------------------------------------------------------


def _find_root(path: Path) -> Path:
    """The source root: the directory that contains the ``repro`` package."""
    path = path.resolve()
    probe = path if path.is_dir() else path.parent
    while probe != probe.parent:
        if (probe / "repro" / "__init__.py").exists():
            return probe
        if probe.name == "repro" and (probe / "__init__.py").exists():
            return probe.parent
        probe = probe.parent
    return path if path.is_dir() else path.parent


def _tree_contexts(path: Path, root: Path) -> List[FileContext]:
    files: Iterable[Path]
    if path.is_file():
        files = [path]
    else:
        files = sorted(p for p in path.rglob("*.py"))
    contexts = []
    for file in files:
        try:
            rel = file.resolve().relative_to(root).as_posix()
        except ValueError:
            rel = file.as_posix()
        contexts.append(FileContext(rel, file.read_text(), file.as_posix()))
    return contexts


def lint_tree_result(
    path,
    select: Optional[Set[str]] = None,
    ignore: Optional[Set[str]] = None,
    baseline: Optional[Path] = None,
    use_default_baseline: bool = True,
) -> LintResult:
    """Lint every ``.py`` under ``path`` (a source tree, package or file).

    With ``use_default_baseline`` (and no explicit ``baseline``), the
    checked-in baseline at ``<root>/repro/check/lint-baseline.json`` is
    applied when it exists.
    """
    path = Path(path)
    root = _find_root(path)
    if baseline is None and use_default_baseline:
        candidate = root / BASELINE_RELPATH
        if candidate.exists():
            baseline = candidate
    contexts = _tree_contexts(path, root)
    return default_manager().run_tree(root, contexts, select, ignore, baseline)


def lint_tree(path) -> List[Finding]:
    """Effective findings of :func:`lint_tree_result` (back-compat shim)."""
    return lint_tree_result(path).findings


def render(findings: List[Finding]) -> str:
    if not findings:
        return "repro-lint: clean"
    lines = [str(f) for f in findings]
    lines.append(f"repro-lint: {len(findings)} finding(s)")
    return "\n".join(lines)


def _parse_rule_set(spec: Optional[str]) -> Optional[Set[str]]:
    if spec is None:
        return None
    return {part.strip() for part in spec.split(",") if part.strip()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Protocol lint for the application-controlled caching codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select", help="comma-separated rule ids to run (e.g. F001,F005)"
    )
    parser.add_argument("--ignore", help="comma-separated rule ids to skip")
    parser.add_argument(
        "--format",
        choices=("text", "github", "json"),
        default="text",
        help="output format (github emits ::error annotations)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the JSON report to PATH (any --format)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help=f"baseline file (default: <root>/{BASELINE_RELPATH} when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept the current findings: rewrite the baseline and exit 0",
    )
    args = parser.parse_args(argv)
    select = _parse_rule_set(args.select)
    ignore = _parse_rule_set(args.ignore)

    try:
        for path in args.paths:
            if not Path(path).exists():
                print(f"repro-lint: error: no such file or directory: {path}")
                return 2

        if args.write_baseline:
            # Collect *raw* post-suppression findings (no baseline applied)
            # and persist them as the new accepted set.
            all_findings: List[Finding] = []
            for path in args.paths:
                result = lint_tree_result(
                    path, select, ignore, use_default_baseline=False
                )
                all_findings.extend(result.findings)
            root = _find_root(Path(args.paths[0]))
            baseline_path = (
                Path(args.baseline) if args.baseline else root / BASELINE_RELPATH
            )
            write_baseline(baseline_path, all_findings)
            print(
                f"repro-lint: wrote {len(all_findings)} accepted finding(s) "
                f"to {baseline_path}"
            )
            return 0

        findings: List[Finding] = []
        raw_count = suppressed = baselined = 0
        for path in args.paths:
            result = lint_tree_result(
                path,
                select,
                ignore,
                baseline=Path(args.baseline) if args.baseline else None,
                use_default_baseline=not args.no_baseline,
            )
            findings.extend(result.findings)
            raw_count += result.raw_count
            suppressed += result.suppressed
            baselined += result.baselined
        merged = LintResult(findings, raw_count, suppressed, baselined)

        if args.json:
            Path(args.json).write_text(json.dumps(result_json(merged), indent=2) + "\n")
        if args.format == "github":
            print(render_github(merged))
        elif args.format == "json":
            print(json.dumps(result_json(merged), indent=2))
        else:
            print(render_text(merged))
        return 1 if merged.findings else 0
    except Exception as exc:  # analyzer crash, not a lint finding
        print(f"repro-lint: internal error: {exc!r}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
