"""The static protocol lint: each rule fires on a synthetic violation and
stays silent on the real tree."""

import textwrap
from pathlib import Path

from repro.check.lint import (
    Finding,
    check_policy_registry,
    check_workload_registry,
    lint_source,
    lint_tree,
    main,
    render,
)

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


def lint(source, relpath):
    return lint_source(textwrap.dedent(source), relpath)


def rules(findings):
    return sorted({f.rule for f in findings})


class TestR001AcmProtocol:
    def test_acm_call_outside_buf_fires(self):
        findings = lint(
            """
            def sneaky(acm, block):
                acm.replace_block(block)
            """,
            "repro/sim/engine.py",
        )
        assert rules(findings) == ["R001"]
        assert "replace_block" in findings[0].message

    def test_all_five_procedures_covered(self):
        for proc in ("new_block", "block_gone", "block_accessed", "replace_block", "placeholder_used"):
            findings = lint(f"def f(acm, b):\n    acm.{proc}(b)\n", "repro/harness/cli.py")
            assert rules(findings) == ["R001"], proc

    def test_buf_itself_is_allowed(self):
        findings = lint(
            "def f(acm, b):\n    acm.new_block(b)\n",
            "repro/core/buffercache.py",
        )
        assert findings == []

    def test_plain_function_of_same_name_is_ignored(self):
        findings = lint("def f(b):\n    new_block(b)\n", "repro/sim/engine.py")
        assert findings == []


class TestR002Determinism:
    def test_wall_clock_in_core_fires(self):
        findings = lint(
            "import time\n\ndef stamp():\n    return time.time()\n",
            "repro/core/buffercache.py",
        )
        assert rules(findings) == ["R002"]

    def test_datetime_now_fires(self):
        findings = lint(
            "from datetime import datetime\n\ndef f():\n    return datetime.now()\n",
            "repro/sim/engine.py",
        )
        assert rules(findings) == ["R002"]

    def test_unseeded_module_rng_fires(self):
        findings = lint(
            "import random\n\ndef f():\n    return random.randint(0, 9)\n",
            "repro/disk/model.py",
        )
        assert rules(findings) == ["R002"]

    def test_seeded_rng_instance_is_allowed(self):
        findings = lint(
            "import random\n\ndef f(seed):\n    return random.Random(seed).randint(0, 9)\n",
            "repro/disk/model.py",
        )
        assert findings == []

    def test_wall_clock_outside_core_is_allowed(self):
        findings = lint(
            "import time\n\ndef stamp():\n    return time.time()\n",
            "repro/harness/cli.py",
        )
        assert findings == []


class TestR004MutableState:
    def test_mutable_default_argument_fires(self):
        findings = lint("def f(xs=[]):\n    return xs\n", "repro/workloads/base.py")
        assert rules(findings) == ["R004"]

    def test_dict_call_default_fires(self):
        findings = lint("def f(m=dict()):\n    return m\n", "repro/core/acm.py")
        assert rules(findings) == ["R004"]

    def test_kwonly_mutable_default_fires(self):
        findings = lint("def f(*, xs={}):\n    return xs\n", "repro/sim/engine.py")
        assert rules(findings) == ["R004"]

    def test_none_default_is_allowed(self):
        findings = lint("def f(xs=None):\n    return xs or []\n", "repro/core/acm.py")
        assert findings == []

    def test_helper_scripts_are_out_of_scope(self):
        # Mutable defaults in throwaway scaffolding outside repro/ are the
        # author's business; the rule guards the shipped package only.
        findings = lint("def f(xs=[]):\n    return xs\n", "scripts/plot_results.py")
        assert findings == []

    def test_unfrozen_config_dataclass_fires(self):
        findings = lint(
            """
            from dataclasses import dataclass

            @dataclass
            class DiskParams:
                rpm: int = 5400
            """,
            "repro/disk/model.py",
        )
        assert rules(findings) == ["R004"]
        assert "frozen" in findings[0].message

    def test_frozen_config_dataclass_is_allowed(self):
        findings = lint(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class DiskParams:
                rpm: int = 5400
            """,
            "repro/disk/model.py",
        )
        assert findings == []

    def test_non_config_dataclass_may_be_mutable(self):
        findings = lint(
            """
            from dataclasses import dataclass

            @dataclass
            class RunningTotals:
                hits: int = 0
            """,
            "repro/core/buffercache.py",
        )
        assert findings == []


class TestR005OpConsumers:
    def test_isinstance_dispatch_outside_kernel_fires(self):
        findings = lint(
            """
            from repro.sim import ops

            def f(op):
                if isinstance(op, ops.BlockRead):
                    return op.blockno
            """,
            "repro/workloads/base.py",
        )
        assert rules(findings) == ["R005"]

    def test_tuple_of_ops_fires(self):
        findings = lint(
            """
            def f(op, BlockRead, BlockWrite):
                return isinstance(op, (BlockRead, BlockWrite))
            """,
            "repro/harness/cli.py",
        )
        assert rules(findings) == ["R005"]

    def test_kernel_is_allowed(self):
        findings = lint(
            """
            def f(op, BlockRead):
                return isinstance(op, BlockRead)
            """,
            "repro/kernel/system.py",
        )
        assert findings == []

    def test_unrelated_isinstance_is_allowed(self):
        findings = lint(
            "def f(x):\n    return isinstance(x, int)\n",
            "repro/workloads/base.py",
        )
        assert findings == []


class TestR006ServerLayering:
    def test_kernel_import_in_daemon_fires(self):
        findings = lint("import repro.kernel.system\n", "repro/server/daemon.py")
        assert rules(findings) == ["R006"]
        assert "service" in findings[0].message

    def test_core_from_import_fires(self):
        findings = lint(
            "from repro.core.buffercache import BufferCache\n",
            "repro/server/protocol.py",
        )
        assert rules(findings) == ["R006"]

    def test_relative_import_is_resolved(self):
        findings = lint("from ..core import acm\n", "repro/server/session.py")
        assert rules(findings) == ["R006"]

    def test_package_smuggling_fires(self):
        findings = lint("from repro import core\n", "repro/server/client.py")
        assert rules(findings) == ["R006"]

    def test_service_gate_is_allowed(self):
        findings = lint(
            "from repro.kernel.system import MachineConfig, System\nfrom repro.core.acm import ACM\n",
            "repro/server/service.py",
        )
        assert findings == []

    def test_protocol_only_imports_are_clean(self):
        findings = lint(
            "import asyncio\nfrom repro.server.protocol import Transport\nfrom repro.server.stats import SessionCounters\n",
            "repro/server/session.py",
        )
        assert findings == []

    def test_outside_server_package_is_allowed(self):
        findings = lint(
            "from repro.core.buffercache import BufferCache\n",
            "repro/harness/experiments.py",
        )
        assert findings == []


class TestR007BareIOErrors:
    def test_bare_oserror_raise_fires(self):
        findings = lint(
            "def f():\n    raise OSError('disk died')\n",
            "repro/disk/drive.py",
        )
        assert rules(findings) == ["R007"]
        assert "faults" in findings[0].message

    def test_bare_ioerror_without_call_fires(self):
        findings = lint("def f():\n    raise IOError\n", "repro/fs/syncer.py")
        assert rules(findings) == ["R007"]

    def test_faults_package_is_exempt(self):
        findings = lint(
            "def f():\n    raise OSError('simulated')\n",
            "repro/faults/errors.py",
        )
        assert findings == []

    def test_typed_fault_error_is_allowed(self):
        findings = lint(
            "from repro.faults import InjectedIOError\n"
            "def f():\n    raise InjectedIOError('hda', 4, write=True, kind='error')\n",
            "repro/kernel/system.py",
        )
        assert findings == []

    def test_catching_oserror_is_allowed(self):
        findings = lint(
            "def f(path):\n"
            "    try:\n"
            "        open(path)\n"
            "    except OSError:\n"
            "        pass\n",
            "repro/harness/cli.py",
        )
        assert findings == []

    def test_reraise_is_allowed(self):
        findings = lint(
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except OSError:\n"
            "        raise\n",
            "repro/fs/filesystem.py",
        )
        assert findings == []

    def test_outside_repro_tree_is_allowed(self):
        findings = lint("def f():\n    raise OSError('x')\n", "tools/helper.py")
        assert findings == []


class TestR003Registry:
    def _write_tree(self, tmp_path, registry, extra=""):
        pkg = tmp_path / "repro" / "policies"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "base.py").write_text(
            textwrap.dedent(
                """
                class EvictionPolicy:
                    def _on_hit(self, block): ...
                    def _on_insert(self, block): ...
                    def _choose_victim(self): ...
                """
            )
        )
        (pkg / "impl.py").write_text(textwrap.dedent(extra))
        (pkg / "registry.py").write_text(textwrap.dedent(registry))
        return tmp_path

    def test_good_registry_is_clean(self, tmp_path):
        root = self._write_tree(
            tmp_path,
            registry="""
            from .impl import Good

            POLICY_FACTORIES = {"good": Good}
            """,
            extra="""
            from .base import EvictionPolicy

            class Good(EvictionPolicy):
                def _on_hit(self, block): ...
                def _on_insert(self, block): ...
                def _choose_victim(self):
                    return None
            """,
        )
        assert check_policy_registry(root) == []

    def test_non_subclass_fires(self, tmp_path):
        root = self._write_tree(
            tmp_path,
            registry="""
            from .impl import Rogue

            POLICY_FACTORIES = {"rogue": Rogue}
            """,
            extra="""
            class Rogue:
                def _on_hit(self, block): ...
                def _on_insert(self, block): ...
                def _choose_victim(self): ...
            """,
        )
        findings = check_policy_registry(root)
        assert rules(findings) == ["R003"]
        assert "subclass" in findings[0].message

    def test_missing_hook_fires(self, tmp_path):
        root = self._write_tree(
            tmp_path,
            registry="""
            from .impl import Lazy

            POLICY_FACTORIES = {"lazy": Lazy}
            """,
            extra="""
            class Lazy:
                pass
            """,
        )
        findings = check_policy_registry(root)
        messages = " ".join(f.message for f in findings)
        assert "_choose_victim" in messages

    def test_unknown_class_fires(self, tmp_path):
        root = self._write_tree(
            tmp_path,
            registry="""
            POLICY_FACTORIES = {"ghost": Ghost}
            """,
        )
        findings = check_policy_registry(root)
        assert rules(findings) == ["R003"]


class TestR008Instrumentation:
    def test_counter_dict_bump_fires(self):
        findings = lint(
            "def f(stats):\n    stats['hits'] += 1\n",
            "repro/server/service.py",
        )
        assert rules(findings) == ["R008"]
        assert "telemetry" in findings[0].message

    def test_get_default_bump_fires(self):
        findings = lint(
            "def f(stats):\n    stats['misses'] = stats.get('misses', 0) + 1\n",
            "repro/trace/driver.py",
        )
        assert rules(findings) == ["R008"]

    def test_print_in_library_fires(self):
        findings = lint(
            "def f(x):\n    print('hit ratio', x)\n",
            "repro/core/buffercache.py",
        )
        assert rules(findings) == ["R008"]

    def test_telemetry_package_is_exempt(self):
        findings = lint(
            "def f(stats):\n    stats['hits'] += 1\n",
            "repro/telemetry/metrics.py",
        )
        assert findings == []

    def test_cli_layers_may_print(self):
        for relpath in (
            "repro/harness/cli.py",
            "repro/check/lint.py",
            "repro/server/daemon.py",
        ):
            assert lint("print('listening on ...')\n", relpath) == []

    def test_non_counter_subscripts_are_allowed(self):
        # Non-literal keys, non-numeric increments and non-add ops are all
        # legitimate dict updates, not counters.
        assert lint("def f(d, k):\n    d[k] += 1\n", "repro/core/acm.py") == []
        assert lint("def f(d):\n    d['xs'] += [1]\n", "repro/core/acm.py") == []
        assert lint("def f(d):\n    d['mask'] &= 3\n", "repro/core/acm.py") == []
        assert (
            lint("def f(d, v):\n    d['lba'] = v + 1\n", "repro/core/acm.py") == []
        )

    def test_outside_repro_is_allowed(self):
        assert lint("def f(d):\n    d['hits'] += 1\n", "tests/test_x.py") == []

    def test_local_scratch_dict_is_allowed(self):
        # A dict created and consumed inside one function is scratch state,
        # not instrumentation that belongs in the metrics registry.
        src = """
            def summarize(events):
                counts = {}
                for ev in events:
                    counts['seen'] += 1
                return counts
            """
        assert lint(src, "repro/core/acm.py") == []

    def test_local_dict_get_form_is_allowed(self):
        src = """
            def summarize(events):
                counts = dict()
                counts['seen'] = counts.get('seen', 0) + 1
                return counts
            """
        assert lint(src, "repro/core/acm.py") == []

    def test_dict_merge_get_form_is_allowed(self):
        # Merging two dicts key-by-key reads from a *different* receiver
        # than it writes — that's data plumbing, not a counter bump.
        src = """
            def merge(a, b, out):
                for k in b:
                    out[k] = a.get(k, 0) + b.get(k, 0)
            """
        assert lint(src, "repro/core/acm.py") == []

    def test_attribute_counter_dict_still_fires(self):
        # The local-dict exemption must not leak to shared state.
        src = """
            class S:
                def f(self):
                    self.stats['hits'] += 1
            """
        assert rules(lint(src, "repro/core/acm.py")) == ["R008"]


class TestR009DaemonFactory:
    def test_cache_daemon_outside_supervisor_fires(self):
        findings = lint(
            """
            from repro.server import CacheDaemon

            def rogue_shard(cfg):
                return CacheDaemon(cfg)
            """,
            "repro/cluster/health.py",
        )
        assert rules(findings) == ["R009"]
        assert "supervisor" in findings[0].message

    def test_attribute_call_fires_too(self):
        findings = lint(
            """
            from repro.server import daemon

            def rogue_shard(cfg):
                return daemon.CacheDaemon(cfg)
            """,
            "repro/cluster/client.py",
        )
        assert rules(findings) == ["R009"]

    def test_supervisor_is_the_factory(self):
        findings = lint(
            """
            from repro.server import CacheDaemon

            def build(cfg):
                return CacheDaemon(cfg)
            """,
            "repro/cluster/supervisor.py",
        )
        assert findings == []

    def test_outside_cluster_is_allowed(self):
        findings = lint(
            """
            from repro.server import CacheDaemon

            def build(cfg):
                return CacheDaemon(cfg)
            """,
            "repro/harness/cli.py",
        )
        assert findings == []


class TestR014SeededWorkloadRandomness:
    FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

    def _expected(self, src):
        return sorted(
            lineno
            for lineno, line in enumerate(src.splitlines(), 1)
            if "EXPECT[R014]" in line
        )

    def test_positive_fixture_fires_on_every_marked_line(self):
        src = (self.FIXTURES / "r014_pos.py").read_text()
        findings = lint_source(src, "repro/workloads/rogue.py")
        got = sorted({f.line for f in findings if f.rule == "R014"})
        assert got == self._expected(src), findings

    def test_negative_fixture_is_clean(self):
        src = (self.FIXTURES / "r014_neg.py").read_text()
        findings = lint_source(src, "repro/workloads/production.py")
        assert [f for f in findings if f.rule == "R014"] == []

    def test_outside_workloads_is_unaffected(self):
        # the module-level RNG is R014's concern only inside the
        # generators (the deterministic core has its own rule, R002)
        src = "import random\n\ndef f():\n    return random.random()\n"
        findings = lint_source(src, "repro/harness/demo.py")
        assert [f for f in findings if f.rule == "R014"] == []

    def test_seeded_random_construction_is_allowed(self):
        findings = lint(
            """
            import random

            def rng_for(seed):
                return random.Random(seed)
            """,
            "repro/workloads/production.py",
        )
        assert [f for f in findings if f.rule == "R014"] == []

    def _registry_findings(self, tmp_path, production_src, registry_src):
        pkg = tmp_path / "repro" / "workloads"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "production.py").write_text(textwrap.dedent(production_src))
        (pkg / "registry.py").write_text(textwrap.dedent(registry_src))
        return check_workload_registry(tmp_path)

    REGISTRY_OK = """
        WORKLOADS = {"traffic": lambda **kw: ProductionTraffic(**kw)}
        PATTERNS = {"zipf": ZipfianPattern}
        PROFILES = {"etc": etc_profile}
    """

    def test_unregistered_pattern_class_fires(self, tmp_path):
        findings = self._registry_findings(
            tmp_path,
            """
            class KeyPattern:
                pass

            class ZipfianPattern(KeyPattern):
                pass

            class RoguePattern(KeyPattern):
                pass
            """,
            self.REGISTRY_OK,
        )
        assert rules(findings) == ["R014"]
        assert "RoguePattern" in findings[0].message
        # the in-file base class is not itself registrable
        assert all("KeyPattern" not in f.message for f in findings)

    def test_unregistered_workload_and_profile_fire(self, tmp_path):
        findings = self._registry_findings(
            tmp_path,
            """
            class ShadowTraffic(Workload):
                pass

            def burst_profile(paths=10):
                return None
            """,
            self.REGISTRY_OK,
        )
        assert rules(findings) == ["R014"]
        messages = " ".join(f.message for f in findings)
        assert "ShadowTraffic" in messages and "burst_profile" in messages

    def test_fully_registered_kit_is_clean(self, tmp_path):
        findings = self._registry_findings(
            tmp_path,
            """
            class KeyPattern:
                pass

            class ZipfianPattern(KeyPattern):
                pass

            class ProductionTraffic(Workload):
                pass

            def etc_profile(paths=10):
                return None
            """,
            self.REGISTRY_OK,
        )
        assert findings == []

    def test_missing_registry_dict_reported_once(self, tmp_path):
        findings = self._registry_findings(
            tmp_path,
            "class ZipfianPattern:\n    pass\n",
            'WORKLOADS = {"x": ZipfianPattern}\n',
        )
        assert rules(findings) == ["R014"]
        assert "PATTERNS" in findings[0].message and "PROFILES" in findings[0].message

    def test_real_workload_registry_is_clean(self):
        assert check_workload_registry(SRC_ROOT) == []


class TestRealTree:
    def test_src_is_clean(self):
        findings = lint_tree(SRC_ROOT)
        assert findings == [], render(findings)

    def test_real_registry_is_clean(self):
        assert check_policy_registry(SRC_ROOT) == []

    def test_main_exit_codes(self, tmp_path, capsys):
        assert main([str(SRC_ROOT / "repro" / "core")]) == 0
        bad = tmp_path / "repro" / "sim"
        bad.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (bad / "__init__.py").write_text("")
        (bad / "rogue.py").write_text("import time\n\ndef f():\n    return time.time()\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "R002" in out

    def test_main_rejects_missing_path(self, capsys):
        # exit 2 distinguishes analyzer/usage errors from findings (exit 1)
        assert main(["/no/such/tree"]) == 2
        assert "no such file" in capsys.readouterr().out

    def test_syntax_error_is_reported_not_raised(self):
        findings = lint_source("def broken(:\n", "repro/core/x.py")
        assert rules(findings) == ["R000"]

    def test_finding_str_is_clickable(self):
        f = Finding("R001", "repro/sim/engine.py", 12, "msg")
        assert str(f) == "repro/sim/engine.py:12: R001 msg"
