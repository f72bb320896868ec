"""Extension: dynamic re-prioritisation on a mixed cscope query stream.

Section 5.1's parenthetical — "cscope can keep or discard 'cscope.out' in
cache when necessary by raising or lowering its priority" — is the only
strategy in the paper that *changes* priorities mid-run, and the paper
never measures it.  This benchmark does: an interleaved symbol/text query
plan under (a) the original kernel, (b) the best static policy (MRU on
everything), and (c) the dynamic keep/discard strategy.
"""

from conftest import run_once
from repro.core.allocation import GLOBAL_LRU, LRU_SP
from repro.harness import report
from repro.kernel.system import MachineConfig, System
from repro.workloads import CscopeMixed


def _run(smart: bool, dynamic: bool):
    policy = LRU_SP if smart else GLOBAL_LRU
    system = System(MachineConfig(cache_mb=6.4, policy=policy))
    CscopeMixed(smart=smart, dynamic=dynamic).spawn(system)
    r = system.run()
    return r.proc("csm")


def test_mixed_queries_benchmark(benchmark, save_table):
    def experiment():
        oblivious = _run(smart=False, dynamic=False)
        static = _run(smart=True, dynamic=False)
        dynamic = _run(smart=True, dynamic=True)
        return {
            "oblivious": (oblivious.elapsed, oblivious.block_ios),
            "static-mru": (static.elapsed, static.block_ios),
            "dynamic-repri": (dynamic.elapsed, dynamic.block_ios),
        }

    data = run_once(benchmark, experiment)
    save_table("extension_mixed_queries", report.render_ablation(
        data, "Mixed cscope queries @ 6.4MB: static vs dynamic priorities"), data=data)

    oblivious, static, dynamic = data["oblivious"], data["static-mru"], data["dynamic-repri"]
    # Any application control beats the original kernel...
    assert static[1] < oblivious[1]
    assert dynamic[1] <= static[1]
    # ...and the dynamic keep/discard beats static MRU on *time*: it trades
    # expensive scattered-source misses for cheap sequential database
    # misses even when the raw miss counts tie.
    assert dynamic[0] < static[0] * 0.95
    assert dynamic[0] < oblivious[0] * 0.85
