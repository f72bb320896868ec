"""Benchmark plumbing.

Each benchmark regenerates one figure/table of the paper, asserts the
*shape* of the result (who wins, by roughly what factor, where crossovers
fall — per DESIGN.md the absolute 1994 numbers are out of scope), writes
the rendered table to ``benchmarks/results/`` through :func:`save_table`
and reports its runtime through pytest-benchmark.  None of these runtimes
is gated: ``python3 -m bench`` gives the end-to-end numbers, and
pytest-benchmark's ``--benchmark-save`` / ``--benchmark-compare`` compare
two local runs (see docs/perf.md).

Experiments are memoised module-level, so one pytest session computes each
underlying dataset once no matter how many benchmarks consume it.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def jsonable(obj: Any) -> Any:
    """Coerce a benchmark result to plain JSON types: dataclasses become
    dicts, and dict keys (cache sizes, policy names) become strings."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


@pytest.fixture(scope="module", autouse=True)
def _sanitized_smoke():
    """Run one tiny LRU-SP workload with the invariant checker attached
    before each benchmark module.  Sanitizing the full experiments would
    swamp their runtimes; a cheap sanitized smoke run still catches protocol
    regressions before minutes are spent benchmarking on top of them (see
    docs/invariants.md)."""
    from repro.kernel.system import MachineConfig, System
    from repro.workloads.readn import ReadN, ReadNBehavior

    system = System(MachineConfig(cache_mb=0.25, sanitize=True))
    ReadN(n=8, file_blocks=24, repeats=2, behavior=ReadNBehavior.SMART).spawn(system)
    system.run()
    system.cache.sanitizer.check_now("benchmark smoke")
    yield


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_table(results_dir):
    """Write a rendered table next to the benchmarks for inspection, plus a
    machine-readable ``<name>.json`` twin: the rendered lines and, when the
    writer passes ``data=``, the underlying result structure."""

    def _save(name: str, text: str, data=None) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")
        record = {"name": name, "lines": text.splitlines()}
        if data is not None:
            record["data"] = jsonable(data)
        (results_dir / f"{name}.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n"
        )
        print(f"\n{text}")

    return _save


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a full experiment exactly once (they take seconds to
    minutes; statistical repetition adds nothing to a deterministic sim)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
