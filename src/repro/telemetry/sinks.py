"""Streaming trace sinks for :class:`~repro.telemetry.TelemetryRecorder`.

A sink receives one flat row dict per record, in the canonical trace
order (interval samples as they happen, finish samples at run end). The
post-hoc :meth:`RunTelemetry.write` writes through the same file sinks,
so a live serial recording and a trace written from a worker-returned
:class:`RunTelemetry` are interchangeable — byte-identical for the same
simulation.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Union

from repro.telemetry.samples import TRACE_FIELDS

__all__ = ["MemorySink", "JSONLSink", "CSVSink", "open_sink"]


class MemorySink:
    """Collects rows into a list (the default for in-process analysis)."""

    def __init__(self) -> None:
        self.rows: List[Dict] = []

    def write_row(self, row: Dict) -> None:
        self.rows.append(row)

    def close(self) -> None:
        pass


class JSONLSink:
    """Streams rows as JSON lines to ``path``."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "w")

    def write_row(self, row: Dict) -> None:
        self._fh.write(json.dumps(row) + "\n")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class CSVSink:
    """Streams rows as CSV (columns: :data:`TRACE_FIELDS`) to ``path``."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "w", newline="")
        self._writer = csv.DictWriter(self._fh, fieldnames=TRACE_FIELDS, restval="")
        self._writer.writeheader()

    def write_row(self, row: Dict) -> None:
        self._writer.writerow(row)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def open_sink(path: Union[str, Path]):
    """A file sink for ``path``, picked by extension (``.csv`` → CSV,
    anything else → JSON lines)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return CSVSink(path)
    return JSONLSink(path)
