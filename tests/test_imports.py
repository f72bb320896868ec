"""What ``import repro`` loads.

The top-level package pulls in the simulator, the BUF/ACM core and trace
replay.  The serving stack (asyncio, ``repro.server``, ``repro.cluster``)
and telemetry load only when a caller asks for them, so a command that
just simulates or replays pays none of their import time.
"""

import json
import subprocess
import sys

FORBIDDEN = ("asyncio", "repro.server", "repro.cluster", "repro.telemetry")


def test_import_repro_loads_no_serving_or_telemetry_module():
    probe = "import json, sys; import repro; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True, text=True
    ).stdout
    loaded = json.loads(out)
    assert "repro.trace.driver" in loaded
    offending = [
        name
        for name in loaded
        if any(name == root or name.startswith(root + ".") for root in FORBIDDEN)
    ]
    assert offending == []
