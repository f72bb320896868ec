"""Experiment definitions — one function per figure/table of the paper.

Every function is pure (deterministic for fixed arguments) and memoised, so
a benchmark that needs Figure 4's data after Table 5 already computed it
pays nothing, whether its arguments are left to their defaults, passed
positionally or by name.  Results come back as small dataclasses carrying both the
absolute numbers and the normalized ratios the paper plots.

Conventions, matching the paper's methodology:

* "original kernel" runs use :data:`~repro.core.allocation.GLOBAL_LRU` and
  the *oblivious* workload variant (no directives existed to issue);
* LRU-SP / ALLOC-LRU / LRU-S runs use the *smart* variant;
* single-app runs and one-disk mixes follow the paper's disk placement
  (cs/din/gli/ldk data on the RZ56, pjn/sort on the RZ26).
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.allocation import ALLOC_LRU, GLOBAL_LRU, LRU_S, LRU_SP, AllocationPolicy
from repro.harness import paperdata
from repro.harness.runner import AppSpec, app, run_mix
from repro.workloads.readn import ReadNBehavior


def _memoised(fn):
    """``functools.lru_cache`` keyed on the arguments with the defaults
    filled in: a call that omits them, one that passes them positionally
    and one that names them all share one entry."""
    cached = functools.lru_cache(maxsize=None)(fn)
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def call(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return cached(*bound.args)

    call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
    return call


def _mix_specs(mix: str, smart: bool) -> List[AppSpec]:
    """'cs2+gli' → [AppSpec(cs2), AppSpec(gli)]."""
    return [app(kind, smart=smart) for kind in mix.split("+")]


def _readn_spec(n: int, behavior: ReadNBehavior, disk: str = None) -> AppSpec:
    kwargs = {
        "n": n,
        "file_blocks": paperdata.READN_FILE_BLOCKS[n],
        "behavior": behavior,
    }
    if disk is not None:
        kwargs["disk"] = disk
    return app("readn", name=f"read{n}", **kwargs)


# -- Figure 4 / Tables 5 & 6 --------------------------------------------------


@dataclass(frozen=True)
class SingleAppResult:
    """One application at one cache size, original kernel vs LRU-SP."""

    app: str
    cache_mb: float
    orig_elapsed: float
    orig_ios: int
    sp_elapsed: float
    sp_ios: int

    @property
    def elapsed_ratio(self) -> float:
        return self.sp_elapsed / self.orig_elapsed

    @property
    def io_ratio(self) -> float:
        return self.sp_ios / self.orig_ios


@_memoised
def fig4_single_apps(
    apps: Tuple[str, ...] = paperdata.APP_ORDER,
    cache_sizes: Tuple[float, ...] = paperdata.CACHE_SIZES_MB,
) -> Dict[str, Dict[float, SingleAppResult]]:
    """Single-application runs: the data behind Figure 4 and Tables 5/6."""
    results: Dict[str, Dict[float, SingleAppResult]] = {}
    for kind in apps:
        per_size = {}
        for mb in cache_sizes:
            orig = run_mix([app(kind, smart=False)], cache_mb=mb, policy=GLOBAL_LRU)
            sp = run_mix([app(kind, smart=True)], cache_mb=mb, policy=LRU_SP)
            per_size[mb] = SingleAppResult(
                app=kind,
                cache_mb=mb,
                orig_elapsed=orig.proc(kind).elapsed,
                orig_ios=orig.proc(kind).block_ios,
                sp_elapsed=sp.proc(kind).elapsed,
                sp_ios=sp.proc(kind).block_ios,
            )
        results[kind] = per_size
    return results


# -- Figures 5 & 6 ------------------------------------------------------------


@dataclass(frozen=True)
class MixResult:
    """One concurrent mix at one cache size under two kernels."""

    mix: str
    cache_mb: float
    base_elapsed: float
    base_ios: int
    test_elapsed: float
    test_ios: int
    base_policy: str = "global-lru"
    test_policy: str = "lru-sp"

    @property
    def elapsed_ratio(self) -> float:
        return self.test_elapsed / self.base_elapsed

    @property
    def io_ratio(self) -> float:
        return self.test_ios / self.base_ios


@_memoised
def fig5_multi_apps(
    mixes: Tuple[str, ...] = paperdata.FIG5_MIXES,
    cache_sizes: Tuple[float, ...] = paperdata.CACHE_SIZES_MB,
) -> Dict[str, Dict[float, MixResult]]:
    """Concurrent mixes: total elapsed time and block I/Os, LRU-SP
    normalized to the original kernel (Figure 5)."""
    results: Dict[str, Dict[float, MixResult]] = {}
    for mix in mixes:
        per_size = {}
        for mb in cache_sizes:
            orig = run_mix(_mix_specs(mix, smart=False), cache_mb=mb, policy=GLOBAL_LRU)
            sp = run_mix(_mix_specs(mix, smart=True), cache_mb=mb, policy=LRU_SP)
            per_size[mb] = MixResult(
                mix=mix,
                cache_mb=mb,
                base_elapsed=orig.makespan,
                base_ios=orig.total_block_ios,
                test_elapsed=sp.makespan,
                test_ios=sp.total_block_ios,
            )
        results[mix] = per_size
    return results


@_memoised
def fig6_alloc_lru(
    mixes: Tuple[str, ...] = paperdata.FIG6_MIXES,
    cache_sizes: Tuple[float, ...] = paperdata.CACHE_SIZES_MB,
) -> Dict[str, Dict[float, MixResult]]:
    """The same smart mixes under ALLOC-LRU, normalized to LRU-SP
    (Figure 6: ratios above 1.0 mean ALLOC-LRU is worse)."""
    results: Dict[str, Dict[float, MixResult]] = {}
    for mix in mixes:
        per_size = {}
        for mb in cache_sizes:
            sp = run_mix(_mix_specs(mix, smart=True), cache_mb=mb, policy=LRU_SP)
            alloc = run_mix(_mix_specs(mix, smart=True), cache_mb=mb, policy=ALLOC_LRU)
            per_size[mb] = MixResult(
                mix=mix,
                cache_mb=mb,
                base_elapsed=sp.makespan,
                base_ios=sp.total_block_ios,
                test_elapsed=alloc.makespan,
                test_ios=alloc.total_block_ios,
                base_policy="lru-sp",
                test_policy="alloc-lru",
            )
        results[mix] = per_size
    return results


# -- Table 1: are placeholders necessary? -----------------------------------


@dataclass(frozen=True)
class Table1Cell:
    """Foreground ReadN's outcome in one protection setting."""

    setting: str
    n: int
    elapsed: float
    block_ios: int


@_memoised
def table1_placeholders(
    ns: Tuple[int, ...] = paperdata.TABLE1_READN,
    cache_mb: float = 6.4,
) -> Dict[str, Dict[int, Table1Cell]]:
    """ReadN against a background Read300 (Table 1).

    * oblivious   — Read300 uses LRU obliviously; kernel LRU-SP;
    * unprotected — Read300 foolishly uses MRU; kernel LRU-S (no
      placeholders);
    * protected   — Read300 foolishly uses MRU; kernel LRU-SP.
    """
    settings = (
        ("oblivious", ReadNBehavior.OBLIVIOUS, LRU_SP),
        ("unprotected", ReadNBehavior.FOOLISH, LRU_S),
        ("protected", ReadNBehavior.FOOLISH, LRU_SP),
    )
    results: Dict[str, Dict[int, Table1Cell]] = {}
    for setting, background_behavior, policy in settings:
        per_n = {}
        for n in ns:
            fg = _readn_spec(n, ReadNBehavior.OBLIVIOUS)
            bg = _readn_spec(300, background_behavior)
            r = run_mix([fg, bg], cache_mb=cache_mb, policy=policy)
            proc = r.proc(f"read{n}")
            per_n[n] = Table1Cell(
                setting=setting, n=n, elapsed=proc.elapsed, block_ios=proc.block_ios
            )
        results[setting] = per_n
    return results


# -- Table 2: do foolish processes hurt smart ones? ----------------------------


@dataclass(frozen=True)
class Table2Cell:
    app: str
    background: str
    elapsed: float
    block_ios: int


@_memoised
def table2_foolish(
    apps: Tuple[str, ...] = paperdata.TABLE2_APPS,
    cache_mb: float = 6.4,
) -> Dict[str, Dict[str, Table2Cell]]:
    """Each smart app next to an oblivious vs a foolish Read300 (one disk)."""
    results: Dict[str, Dict[str, Table2Cell]] = {}
    for background, behavior in (
        ("oblivious", ReadNBehavior.OBLIVIOUS),
        ("foolish", ReadNBehavior.FOOLISH),
    ):
        row = {}
        for kind in apps:
            specs = [app(kind, smart=True), _readn_spec(300, behavior)]
            r = run_mix(specs, cache_mb=cache_mb, policy=LRU_SP)
            row[kind] = Table2Cell(
                app=kind,
                background=background,
                elapsed=r.proc(kind).elapsed,
                block_ios=r.proc(kind).block_ios,
            )
        results[background] = row
    return results


# -- Tables 3 & 4: do smart processes hurt oblivious ones? ---------------------


@dataclass(frozen=True)
class Table34Cell:
    app: str
    app_mode: str
    read300_elapsed: float
    read300_ios: int


def _smart_vs_oblivious(apps: Tuple[str, ...], cache_mb: float, readn_disk) -> Dict[str, Dict[str, Table34Cell]]:
    results: Dict[str, Dict[str, Table34Cell]] = {}
    for mode, smart in (("oblivious", False), ("smart", True)):
        row = {}
        for kind in apps:
            specs = [
                app(kind, smart=smart),
                _readn_spec(300, ReadNBehavior.OBLIVIOUS, disk=readn_disk),
            ]
            r = run_mix(specs, cache_mb=cache_mb, policy=LRU_SP)
            proc = r.proc("read300")
            row[kind] = Table34Cell(
                app=kind,
                app_mode=mode,
                read300_elapsed=proc.elapsed,
                read300_ios=proc.block_ios,
            )
        results[mode] = row
    return results


@_memoised
def table3_smart_one_disk(
    apps: Tuple[str, ...] = paperdata.TABLE2_APPS,
    cache_mb: float = 6.4,
) -> Dict[str, Dict[str, Table34Cell]]:
    """Read300's elapsed time next to oblivious vs smart apps, one disk."""
    return _smart_vs_oblivious(apps, cache_mb, readn_disk=None)


@_memoised
def table4_smart_two_disks(
    apps: Tuple[str, ...] = paperdata.TABLE2_APPS,
    cache_mb: float = 6.4,
) -> Dict[str, Dict[str, Table34Cell]]:
    """Same, but Read300's file lives on the RZ26: the disk-contention
    anomaly the paper saw with gli should disappear."""
    return _smart_vs_oblivious(apps, cache_mb, readn_disk="RZ26")


# -- Ablations beyond the paper's figures --------------------------------------


@_memoised
def ablation_policies(
    mix: str = "cs2+gli",
    cache_mb: float = 6.4,
    policies: Tuple[AllocationPolicy, ...] = (GLOBAL_LRU, ALLOC_LRU, LRU_S, LRU_SP),
) -> Dict[str, Tuple[float, int]]:
    """One mix under every allocation policy → {policy: (elapsed, ios)}.

    Extends Figure 6 with the LRU-S point, isolating what swapping alone
    and placeholders alone contribute.
    """
    out = {}
    for policy in policies:
        smart = policy.consult
        r = run_mix(_mix_specs(mix, smart=smart), cache_mb=cache_mb, policy=policy)
        out[policy.name] = (r.makespan, r.total_block_ios)
    return out


@_memoised
def ablation_readahead(
    kind: str = "din",
    cache_mb: float = 6.4,
) -> Dict[str, Tuple[float, int]]:
    """One app with and without kernel read-ahead (timing sensitivity)."""
    out = {}
    for label, ra in (("readahead", True), ("no-readahead", False)):
        r = run_mix([app(kind, smart=False)], cache_mb=cache_mb, policy=GLOBAL_LRU, readahead=ra)
        out[label] = (r.makespan, r.total_block_ios)
    return out
