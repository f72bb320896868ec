"""Command-line entry point: ``repro-accfc <experiment>``.

Examples::

    repro-accfc fig4                 # single apps, all cache sizes
    repro-accfc fig4 --apps din cs1 --sizes 6.4 8
    repro-accfc table1               # the placeholder-protection study
    repro-accfc check                # protocol lint + sanitized smoke run
    repro-accfc serve --port 7481    # run the multi-client cache daemon
    repro-accfc serve --faults plan.json   # ... under an injected-fault plan
    repro-accfc cluster --shards 3 --port-base 7490   # sharded cache cluster
    repro-accfc metrics --port 7481  # scrape a running daemon (Prometheus text)
    repro-accfc metrics --port 7490 --all-shards 3    # merged cluster scrape
    repro-accfc load --profile etc --shards 16 --sessions 1024   # traffic engine
    repro-accfc load --trace ops.csv --shards 4 --json           # trace replay
    repro-accfc all                  # everything (several minutes)

Scrape payloads (metrics/stats output) go to stdout; status and
diagnostic lines go to stderr so piping the payload stays clean, and
``--quiet`` silences them entirely.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.harness import experiments, paperdata, report


def _sizes(args) -> tuple:
    return tuple(args.sizes) if args.sizes else paperdata.CACHE_SIZES_MB


def _run_fig4(args) -> str:
    apps = tuple(args.apps) if args.apps else paperdata.APP_ORDER
    return report.render_fig4(experiments.fig4_single_apps(apps, _sizes(args)))


def _run_table5(args) -> str:
    apps = tuple(args.apps) if args.apps else paperdata.APP_ORDER
    data = experiments.fig4_single_apps(apps, _sizes(args))
    return "Table 5: elapsed time (s)\n" + report.render_table56(data, "elapsed")


def _run_table6(args) -> str:
    apps = tuple(args.apps) if args.apps else paperdata.APP_ORDER
    data = experiments.fig4_single_apps(apps, _sizes(args))
    return "Table 6: block I/Os\n" + report.render_table56(data, "ios")


def _run_fig5(args) -> str:
    mixes = tuple(args.mixes) if args.mixes else paperdata.FIG5_MIXES
    return report.render_mixes(experiments.fig5_multi_apps(mixes, _sizes(args)), "Figure 5")


def _run_fig6(args) -> str:
    mixes = tuple(args.mixes) if args.mixes else paperdata.FIG6_MIXES
    return report.render_mixes(experiments.fig6_alloc_lru(mixes, _sizes(args)), "Figure 6")


def _run_table1(args) -> str:
    return "Table 1: placeholder protection\n" + report.render_table1(
        experiments.table1_placeholders()
    )


def _run_table2(args) -> str:
    return "Table 2: effect of a foolish process\n" + report.render_table2(
        experiments.table2_foolish()
    )


def _run_table3(args) -> str:
    return "Table 3: Read300 next to oblivious/smart apps (one disk)\n" + report.render_table34(
        experiments.table3_smart_one_disk(), paperdata.PAPER_TABLE3
    )


def _run_table4(args) -> str:
    return "Table 4: Read300 on its own disk\n" + report.render_table34(
        experiments.table4_smart_two_disks(), paperdata.PAPER_TABLE4
    )


def _run_sweep(args) -> str:
    from repro.harness.sweep import cache_size_sweep

    sizes = args.sizes or [2, 4, 6.4, 8, 10, 12, 14, 16, 20]
    kind = (args.apps or ["din"])[0]
    points = cache_size_sweep(kind, sizes)
    lines = [f"Cache-size sweep: {kind}", f"{'MB':>6} {'orig-IO':>8} {'sp-IO':>8} {'io-ratio':>8} {'t-ratio':>8}"]
    for pt in points:
        lines.append(
            f"{pt.cache_mb:6.1f} {pt.orig_ios:8d} {pt.sp_ios:8d} "
            f"{pt.io_ratio:8.2f} {pt.elapsed_ratio:8.2f}"
        )
    lines.append("")
    lines.append(report.ascii_chart(
        {"io-ratio": [pt.io_ratio for pt in points],
         "t-ratio": [pt.elapsed_ratio for pt in points]},
        labels=[f"{pt.cache_mb:g}" for pt in points],
        hi=1.0,
    ))
    return "\n".join(lines)


def _run_zoo(args) -> str:
    from repro.harness.sweep import policy_zoo_sweep

    kind = (args.apps or ["din"])[0]
    frames = int((args.sizes or [6.4])[0] * 1024 * 1024 // 8192)
    misses = policy_zoo_sweep(kind, frames)
    lines = [f"Policy zoo on {kind}'s reference trace @ {frames} frames",
             f"{'policy':>8} {'misses':>8}"]
    for name, count in sorted(misses.items(), key=lambda kv: kv[1]):
        lines.append(f"{name:>8} {count:8d}")
    return "\n".join(lines)


def _run_validate(args) -> str:
    from repro.harness.validate import render_validation, run_validation, verdict

    results = run_validation()
    text = render_validation(results)
    if any(verdict(claim, value) == "FAIL" for claim, value in results):
        raise _CheckFailed(text)
    return text


def _run_ablation(args) -> str:
    parts = [
        report.render_ablation(
            experiments.ablation_policies(mix=args.mix),
            f"Allocation-policy ablation on {args.mix} @ 6.4MB",
        ),
        report.render_ablation(
            experiments.ablation_readahead(),
            "Read-ahead ablation on din @ 6.4MB (original kernel)",
        ),
    ]
    return "\n\n".join(parts)


class _CheckFailed(Exception):
    """Raised by ``repro-accfc check`` when lint or the sanitizer finds
    something, and by ``validate`` when a claim fails; carries the
    rendered report."""


def _run_check(args) -> str:
    """Protocol conformance: static lint over the installed package (flat
    R-rules plus the F001–F005 flow passes, baseline applied), then a
    small LRU-SP workload with the runtime sanitizer attached."""
    import os

    import repro
    from repro.check.lint import lint_tree, render
    from repro.check.invariants import InvariantChecker, InvariantViolation
    from repro.kernel.system import MachineConfig, System
    from repro.workloads.readn import ReadN, ReadNBehavior

    findings = lint_tree(os.path.dirname(repro.__file__))
    lines = [render(findings)]
    system = System(MachineConfig(cache_mb=0.25, sanitize=True))
    wl = ReadN(n=8, file_blocks=24, repeats=2, behavior=ReadNBehavior.SMART)
    wl.spawn(system)
    try:
        system.run()
    except InvariantViolation as exc:
        lines.append(f"sanitizer: {exc}")
        raise _CheckFailed("\n".join(lines)) from exc
    checker: InvariantChecker = system.cache.sanitizer
    checker.check_now("final")
    lines.append(f"sanitizer: clean ({checker.sweeps} sweeps)")
    if findings:
        raise _CheckFailed("\n".join(lines))
    return "\n".join(lines)


_EXPERIMENTS = {
    "check": _run_check,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "table1": _run_table1,
    "table2": _run_table2,
    "table3": _run_table3,
    "table4": _run_table4,
    "table5": _run_table5,
    "table6": _run_table6,
    "ablation": _run_ablation,
    "sweep": _run_sweep,
    "zoo": _run_zoo,
    "validate": _run_validate,
}


def emit_payload(text: str) -> None:
    """Write a data payload to stdout as one flushed block.

    Status lines (ours and the daemon's trace-sink diagnostics) live on
    stderr; draining stderr first and flushing stdout after keeps the
    two streams from interleaving mid-payload on slow terminals, where
    stdout is block-buffered once piped but stderr is not.
    """
    sys.stderr.flush()
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")
    sys.stdout.flush()


def status_line(message: str, quiet: bool = False) -> None:
    """A human status/diagnostic line: stderr, flushed, silenced by --quiet."""
    if not quiet:
        print(message, file=sys.stderr, flush=True)


def _metrics_endpoints(args, parser) -> List[tuple]:
    """The endpoint list a ``metrics`` invocation scrapes.

    One endpoint is the classic single-daemon scrape; several (via
    repeated ``--connect`` or ``--all-shards``) get concatenated into a
    single exposition with a ``shard`` label per endpoint and no
    duplicate ``# HELP``/``# TYPE`` headers.
    """
    endpoints: List[tuple] = []
    for spec in args.connect or ():
        host, sep, port = spec.rpartition(":")
        if not sep or not port.isdigit():
            parser.error(f"--connect expects HOST:PORT, got {spec!r}")
        endpoints.append(("tcp", host or args.host, int(port)))
    if args.all_shards:
        if not args.port:
            parser.error("--all-shards needs --port (the port of shard 0)")
        for i in range(args.all_shards):
            endpoints.append(("tcp", args.host, args.port + i))
    if not endpoints:
        if args.unix:
            endpoints.append(("unix", args.unix))
        elif args.port:
            endpoints.append(("tcp", args.host, args.port))
        else:
            parser.error("one of --port, --unix, --connect or --all-shards is required")
    return endpoints


def metrics_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-accfc metrics``: scrape one or many daemons."""
    import asyncio
    import json

    parser = argparse.ArgumentParser(
        prog="repro-accfc metrics",
        description="Fetch telemetry from running cache daemons and print it. "
        "Multiple endpoints (--connect repeated, or --all-shards for a cluster's "
        "consecutive ports) are merged into one exposition with a shard label.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="daemon TCP address")
    parser.add_argument("--port", type=int, help="daemon TCP port")
    parser.add_argument("--unix", metavar="PATH", help="daemon Unix socket instead of TCP")
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        action="append",
        help="scrape this endpoint too (repeatable)",
    )
    parser.add_argument(
        "--all-shards",
        type=int,
        metavar="N",
        help="scrape N cluster shards on --host at ports --port..--port+N-1",
    )
    parser.add_argument(
        "--format",
        choices=("prometheus", "json", "trace", "both"),
        default="prometheus",
        help="prometheus text exposition (default), JSON snapshot, retained trace spans, or both",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress status lines on stderr; only the scrape payload is printed",
    )
    args = parser.parse_args(argv)
    endpoints = _metrics_endpoints(args, parser)

    def ensure_quantiles(node) -> None:
        """Fill bucket-estimated p50/p99 into histogram samples in place.

        Current daemons export them already; scraping an older daemon (or
        a merged snapshot of mixed versions) gets the same fields computed
        client-side from the cumulative buckets.
        """
        from repro.telemetry.metrics import histogram_quantiles

        if isinstance(node, dict):
            if "buckets" in node and "quantiles" not in node:
                try:
                    node["quantiles"] = histogram_quantiles(node["buckets"])
                except (KeyError, TypeError, ValueError):
                    pass
            for value in node.values():
                ensure_quantiles(value)
        elif isinstance(node, list):
            for value in node:
                ensure_quantiles(value)

    async def scrape_one(endpoint: tuple):
        from repro.server.client import CacheClient

        client = await CacheClient.connect([endpoint], name="metrics-cli")
        try:
            return await client.metrics(format=args.format)
        finally:
            await client.aclose()

    def endpoint_label(endpoint: tuple) -> str:
        if endpoint[0] == "unix":
            return f"unix:{endpoint[1]}"
        return f"{endpoint[1]}:{endpoint[2]}"

    async def scrape() -> int:
        if len(endpoints) > 1:
            status_line(
                f"repro-accfc metrics: scraping {len(endpoints)} endpoints",
                quiet=args.quiet,
            )
        replies = [await scrape_one(endpoint) for endpoint in endpoints]
        if args.format != "prometheus":
            for reply in replies:
                ensure_quantiles(reply)
        if len(replies) == 1:
            reply = replies[0]
            if args.format == "prometheus":
                emit_payload(reply.get("text", ""))
            else:
                emit_payload(json.dumps(reply, indent=2, sort_keys=True))
            return 0
        from repro.cluster.aggregate import merge_prometheus

        labelled = {
            endpoint_label(ep): reply for ep, reply in zip(endpoints, replies)
        }
        if args.format == "prometheus":
            texts = {label: reply.get("text", "") for label, reply in labelled.items()}
            emit_payload(merge_prometheus(texts))
        else:
            emit_payload(json.dumps(labelled, indent=2, sort_keys=True))
        return 0

    return asyncio.run(scrape())


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        # The daemon has its own option set; hand over before the
        # experiment parser rejects its flags.
        from repro.server.daemon import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "metrics":
        return metrics_main(argv[1:])
    if argv and argv[0] == "cluster":
        from repro.cluster.cli import cluster_main

        return cluster_main(argv[1:])
    if argv and argv[0] == "load":
        from repro.harness.load import load_main

        return load_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-accfc",
        description="Regenerate the figures and tables of 'Application-Controlled File Caching' (OSDI '94). "
        "The extra subcommands 'serve', 'cluster' and 'metrics' (repro-accfc serve --help) run and "
        "scrape the multi-client cache daemon or a sharded cluster of them.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all"],
        help="which figure/table to regenerate",
    )
    parser.add_argument("--sizes", type=float, nargs="+", help="cache sizes in MB")
    parser.add_argument("--apps", nargs="+", help="subset of applications (fig4/table5/table6)")
    parser.add_argument("--mixes", nargs="+", help="subset of mixes (fig5/fig6)")
    parser.add_argument("--mix", default="cs2+gli", help="mix for the ablation experiment")
    parser.add_argument("--csv", metavar="DIR", help="also export fig4/fig5/fig6 data as CSV into DIR")
    args = parser.parse_args(argv)

    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    failed = False
    for name in names:
        start = time.time()
        try:
            output = _EXPERIMENTS[name](args)
        except _CheckFailed as exc:
            output = str(exc)
            failed = True
        print(f"=== {name} ({time.time() - start:.1f}s) ===")
        print(output)
        print()
        if args.csv and name in ("fig4", "fig5", "fig6"):
            _export_csv(name, args)
    return 1 if failed else 0


def _export_csv(name: str, args) -> None:
    import os

    from repro.harness import experiments
    from repro.harness.export import rows_from_grid, save, to_csv

    if name == "fig4":
        apps = tuple(args.apps) if args.apps else paperdata.APP_ORDER
        grid = experiments.fig4_single_apps(apps, _sizes(args))
        rows = rows_from_grid(grid, key_names=("app", "cache_mb"))
    elif name == "fig5":
        mixes = tuple(args.mixes) if args.mixes else paperdata.FIG5_MIXES
        grid = experiments.fig5_multi_apps(mixes, _sizes(args))
        rows = rows_from_grid(grid, key_names=("mix", "cache_mb"))
    else:
        mixes = tuple(args.mixes) if args.mixes else paperdata.FIG6_MIXES
        grid = experiments.fig6_alloc_lru(mixes, _sizes(args))
        rows = rows_from_grid(grid, key_names=("mix", "cache_mb"))
    os.makedirs(args.csv, exist_ok=True)
    path = os.path.join(args.csv, f"{name}.csv")
    save(to_csv(rows), path)
    print(f"(wrote {path})")


if __name__ == "__main__":
    sys.exit(main())
