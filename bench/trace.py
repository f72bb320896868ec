"""Spans recorded from outside the program, around calls into a layer.

A span is ``{name, start, end, parent, trace_id}`` plus whatever the
caller attaches at ``end``.  Spans of one rung share its ``trace_id``.
They stay in memory until ``write`` puts them out as JSON lines when the
benchmark ends.  Spans inside the program are a later change (ROADMAP
item 4); until then the cost of tracing is the cost of these few dicts.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional


class Spans:
    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def begin(self, name: str, trace_id: str, parent: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        span = {
            "id": len(self.records),
            "name": name,
            "trace_id": trace_id,
            "parent": parent["id"] if parent is not None else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(span)
        return span

    def end(self, span: Dict[str, Any], **attrs: Any) -> float:
        """Close ``span``; returns its duration in seconds."""
        span["end"] = time.perf_counter()
        span.update(attrs)
        return span["end"] - span["start"]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.records:
                out.write(json.dumps(span) + "\n")
