"""The slow-query log: the records of queries over a threshold.

``QueryService(slow_query_log=SlowQueryLog(0.5))`` arms the log; every
execution whose end-to-end latency (planning + execution) meets the threshold
keeps its :class:`~repro.obs.history.QueryRecord` — fingerprint, planner,
latency split, rows, pages read/pruned, plan cache hit, plan hash, shard and
morsel counts — enough to reproduce and triage the query without the
operator having to re-run it with tracing on.

Records land in a bounded in-memory ring (newest kept) and, when a ``sink``
callable is given, are also pushed there — a sink is how an embedder routes
records to logging, a file, or an alerting pipeline.  A failing sink never
fails the query; the record still lands in the ring.

:class:`RotatingFileSink` is the batteries-included file sink
(``SlowQueryLog(threshold, sink=RotatingFileSink(path))`` / CLI
``--slow-query-log``): one
JSON line per record, rotated by size with a bounded set of ``.1 .. .N``
rotated files, so a misbehaving workload cannot fill the disk with its own
diagnostics.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from pathlib import Path

from .history import QueryRecord
from .instruments import publish_slow_query

#: Default size at which a :class:`RotatingFileSink` rotates its file.
DEFAULT_SLOW_LOG_MAX_BYTES = 1_000_000

#: Default number of rotated files a :class:`RotatingFileSink` keeps.
DEFAULT_SLOW_LOG_KEEP = 3


class RotatingFileSink:
    """A slow-query sink writing one JSON line per record, rotated by size.

    When the live file reaches ``max_bytes`` it is renamed to ``<path>.1``
    (existing rotated files shuffle up: ``.1`` -> ``.2`` and so on) and a
    fresh file is started; at most ``keep`` rotated files are retained, the
    oldest dropped.  Writes are serialized by a lock so a service's batch
    worker threads never interleave partial lines.
    """

    def __init__(
        self,
        path: str | Path,
        max_bytes: int = DEFAULT_SLOW_LOG_MAX_BYTES,
        keep: int = DEFAULT_SLOW_LOG_KEEP,
    ) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        if keep < 0:
            raise ValueError("keep must be >= 0")
        self.path = Path(path)
        self.max_bytes = int(max_bytes)
        self.keep = int(keep)
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def __call__(self, record: QueryRecord) -> None:
        line = record.as_json() + "\n"
        with self._lock:
            if (
                self.path.exists()
                and self.path.stat().st_size + len(line) > self.max_bytes
            ):
                self._rotate()
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)

    def _rotate(self) -> None:
        """Shuffle ``path`` -> ``.1`` -> ``.2`` ... dropping past ``keep``."""
        if self.keep == 0:
            self.path.unlink(missing_ok=True)
            return
        oldest = self.rotated_path(self.keep)
        oldest.unlink(missing_ok=True)
        for index in range(self.keep - 1, 0, -1):
            source = self.rotated_path(index)
            if source.exists():
                os.replace(source, self.rotated_path(index + 1))
        os.replace(self.path, self.rotated_path(1))

    def rotated_path(self, index: int) -> Path:
        """The path of the ``index``-th rotated file (1 = most recent)."""
        return self.path.with_name(f"{self.path.name}.{index}")

    def existing_files(self) -> list[Path]:
        """The live file plus rotated files that exist, newest first."""
        candidates = [self.path] + [
            self.rotated_path(index) for index in range(1, self.keep + 1)
        ]
        return [path for path in candidates if path.exists()]


class SlowQueryLog:
    """A bounded ring of slow :class:`~repro.obs.history.QueryRecord` with a pluggable sink."""

    def __init__(
        self,
        threshold_seconds: float,
        sink=None,
        capacity: int = 256,
    ) -> None:
        if threshold_seconds < 0:
            raise ValueError("slow-query threshold must be >= 0")
        self.threshold_seconds = float(threshold_seconds)
        self.sink = sink
        self._records: deque[QueryRecord] = deque(maxlen=capacity)

    def observe(self, record: QueryRecord) -> bool:
        """Consider one finished query; returns True if it was logged."""
        if record.seconds < self.threshold_seconds:
            return False
        self._records.append(record)
        publish_slow_query()
        if self.sink is not None:
            try:
                self.sink(record)
            except Exception:
                # A broken sink must never fail the query that tripped it.
                pass
        return True

    @property
    def records(self) -> list[QueryRecord]:
        """The retained records, oldest first."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        self._records.clear()
