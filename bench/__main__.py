"""``python -m bench`` — the repository's benchmark.

One workload, one run (what ``BENCHMARK.json`` names as the command)::

    python3 -m bench --workload single_ops --seed 17 --seconds 16 --trace 0

prints every metric by name and unit, the checks and the run-validity
flags, and as its last line one JSON object.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` runs the workload's
counted prefix and short phases under spans, then the layer ledger, and
reports the per-layer metrics.

Without ``--workload`` the same command drives itself, one child process
per run: all four workloads untraced, then traced.  ``--aa`` does the
untraced set twice and holds the two against the bounds; ``--smoke``
runs 5-second miniatures of everything.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from bench.host import OUT_DIR, REPO_ROOT, bootstrap, host_info

WORKLOADS = ("paper_mix", "single_ops", "batched_ops", "cluster_rw")
DEFAULT_SEED = 17
SMOKE_SECONDS = 5
#: shares of ``--seconds``: untraced (closed loop, open loop), and traced
#: (closed loop, open loop, ledger rungs)
UNTRACED_SHARES = (1 / 2, 1 / 2)
TRACED_SHARES = (1 / 8, 1 / 8, 1 / 2)


def declared() -> Dict[str, Any]:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


# -- one run ------------------------------------------------------------------


def run_one(args: argparse.Namespace, started: float, pinned_found: List[str]) -> int:
    from bench import ledger, paper, serving, streams
    from bench.trace import Spans

    import_s = time.perf_counter() - started
    host = host_info()
    traced = bool(args.trace)
    spans = Spans() if traced else None
    flags = [f"{name} was set (unset for this run)" for name in pinned_found]
    if host["loadavg_1m"] > host["nproc"] / 2:
        flags.append(f"1-min loadavg {host['loadavg_1m']:.2f} > nproc/2 at start")
    print(
        f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} smoke={args.smoke} nproc={host['nproc']} "
        f"python={host['python']} loadavg_1m={host['loadavg_1m']:.2f}"
    )

    problems: List[str] = []
    if args.workload == "paper_mix":
        result = paper.run_paper(args.seconds, spans, import_s, args.smoke)
    else:
        spec = streams.SERVING[args.workload]
        if args.smoke:
            spec = spec.smoke()
        problems += streams.check_determinism(spec, args.seed)
        closed, opened = (s * args.seconds for s in (TRACED_SHARES if traced else UNTRACED_SHARES)[:2])
        result = asyncio.run(
            serving.run_serving(spec, args.seed, closed, opened, spans, import_s)
        )
    problems += result["problems"]
    flags += result["flags"]

    spec_file = declared()
    if traced:
        rungs = ledger.Ledger(spans, args.seed, args.seconds * TRACED_SHARES[2], args.smoke)
        metrics = dict(result["layer"])
        metrics.update(asyncio.run(rungs.run()))
        result["notes"]["ledger_rung_us"] = {k: round(v, 2) for k, v in rungs.totals.items()}
        result["notes"]["ledger_rung_chunks"] = rungs.samples
        spans.write(OUT_DIR / "trace.jsonl")
        wanted = {m["name"]: m["unit"] for m in spec_file["per_layer"]}
        # a layer this workload never crosses did no work
        for name, unit in wanted.items():
            metrics.setdefault(name, (0.0, unit))
    else:
        metrics = result["metrics"]
        wanted = {m["name"]: m["unit"] for m in spec_file["end_to_end"]}
    if {n: u for n, (_, u) in metrics.items()} != wanted:
        odd = sorted(set(wanted) ^ set(metrics)) or "units"
        problems.append(f"metrics differ from BENCHMARK.json: {odd}")

    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:16.6g} {unit}")
    for key, value in result["notes"].items():
        print(f"  note {key} = {value}")
    if not traced:
        for name, (value, unit) in sorted(result["layer"].items()):
            print(f"  diag {name:27s} {value:16.6g} {unit}")
    for flag in flags:
        print(f"  FLAG {flag}")
    for problem in problems:
        print(f"  FAILED {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 1 if problems else 0


# -- every run ----------------------------------------------------------------


def child(workload: str, seed: int, seconds: int, trace: int, smoke: bool) -> Optional[Dict[str, Any]]:
    """Run one workload in a process of its own; echo it; parse its result."""
    argv = [
        sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"bench: {workload} trace={trace} printed no result (exit {done.returncode})")
        return None
    if done.returncode != 0 or not result["correct"] or result["failed"]:
        print(f"bench: {workload} trace={trace} failed its checks (exit {done.returncode})")
        return None
    return result


def sweep(seed: int, seconds: int, trace: int, smoke: bool) -> Tuple[Dict[str, Dict[str, Any]], bool]:
    results, ok = {}, True
    for workload in WORKLOADS:
        result = child(workload, seed, seconds, trace, smoke)
        if result is None:
            ok = False
        else:
            results[workload] = result["metrics"]
    return results, ok


def table(results: Dict[str, Dict[str, Any]], names: List[Dict[str, Any]]) -> None:
    print(f"{'metric':32s} {'unit':6s}" + "".join(f"{w:>16s}" for w in results))
    for metric in names:
        row = "".join(f"{results[w][metric['name']]['value']:16.6g}" for w in results)
        print(f"{metric['name']:32s} {metric['unit']:6s}{row}")


def run_all(args: argparse.Namespace) -> int:
    spec_file = declared()
    seconds = SMOKE_SECONDS if args.smoke else (args.seconds or spec_file["run_seconds"])
    untraced, ok = sweep(args.seed, seconds, 0, args.smoke)
    traced, ok_traced = sweep(args.seed, seconds, 1, args.smoke)
    print("\nend to end (tracing off)")
    table(untraced, spec_file["end_to_end"])
    print("\nper layer (traced run and ledger)")
    table(traced, spec_file["per_layer"])
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    summary = {"seed": args.seed, "seconds": seconds, "host": host_info(),
               "end_to_end": untraced, "per_layer": traced}
    (OUT_DIR / "results.json").write_text(json.dumps(summary, indent=1))
    return 0 if ok and ok_traced else 1


def run_aa(args: argparse.Namespace) -> int:
    """The same code twice: every end-to-end metric must repeat within its bound."""
    spec_file = declared()
    seconds = args.seconds or spec_file["run_seconds"]
    first, ok_a = sweep(args.seed, seconds, 0, False)
    second, ok_b = sweep(args.seed, seconds, 0, False)
    ok = ok_a and ok_b
    print(f"\n{'workload':12s} {'metric':14s} {'first':>14s} {'second':>14s} {'diff':>8s} {'bound':>6s}")
    for workload in (w for w in WORKLOADS if w in first and w in second):
        for metric in spec_file["end_to_end"]:
            a = first[workload][metric["name"]]["value"]
            b = second[workload][metric["name"]]["value"]
            diff = abs(b - a) / abs(a)
            verdict = "" if diff <= metric["bound"] else "  EXCEEDED"
            ok = ok and not verdict
            print(
                f"{workload:12s} {metric['name']:14s} {a:14.6g} {b:14.6g} "
                f"{diff:8.4f} {metric['bound']:6.3f}{verdict}"
            )
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run this one workload once")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None, help="length of the timed phases")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="5-second miniatures")
    parser.add_argument("--aa", action="store_true", help="run twice, compare against the bounds")
    args = parser.parse_args(argv)
    pinned_found = bootstrap()
    if args.workload:
        if args.seconds is None:
            args.seconds = SMOKE_SECONDS if args.smoke else declared()["run_seconds"]
        return run_one(args, started, pinned_found)
    return run_aa(args) if args.aa else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
