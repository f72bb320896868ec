"""The host side of the benchmark: paths, pinned environment, /proc readers.

Nothing here touches the program under test.  ``bootstrap`` makes the
repository's ``src`` importable for this process and for the shard
subprocesses it spawns, and strips the ``REPRO_*`` switches that would
otherwise leak a sanitizer, hot telemetry, another wire or another
replication degree into the measurement.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict, List

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: switches a caller's shell may carry that change what is measured
PINNED_ENV = ("REPRO_SANITIZE", "REPRO_TELEMETRY", "REPRO_WIRE", "REPRO_REPLICAS")

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def bootstrap() -> List[str]:
    """Make ``repro`` importable here and in children; unset the pinned
    switches.  Returns the names of the switches that were found set."""
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no program to measure: {src / 'repro'} is missing\n")
        raise SystemExit(2)
    found = [name for name in PINNED_ENV if os.environ.pop(name, None) is not None]
    os.environ["PYTHONPATH"] = str(src)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return found


def host_info() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
    }


def proc_cpu_s(pid: int) -> float:
    """CPU seconds ``pid`` has run so far: the scheduler's nanosecond count
    from ``/proc/<pid>/schedstat``, or where the kernel keeps none, the
    10 ms ticks of user+system time in ``/proc/<pid>/stat``."""
    try:
        ran_ns = int(Path(f"/proc/{pid}/schedstat").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        ran_ns = 0
    if ran_ns:
        return ran_ns / 1e9
    stat = Path(f"/proc/{pid}/stat").read_text()
    # the command name may hold spaces; fields are counted after its ")"
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set of ``pid`` in MB (``VmHWM``)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
