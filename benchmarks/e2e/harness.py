"""Measurement core of the end-to-end benchmark.

The load generator is one process and one closed-loop client: the next
operation is issued when the previous one returns.  A *pass* is one trip
through a workload's operations; windows are made of whole passes, so the
mix of statements behind every percentile is the same on every run.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

now = time.perf_counter


# --------------------------------------------------------------------------- #
# Result digests
# --------------------------------------------------------------------------- #
_MIX = np.uint64(0x9E3779B97F4A7C15)
_NULL = np.uint64(0x5BD1E9955BD1E995)


class Digest(NamedTuple):
    """Order-insensitive fingerprint of a row multiset: count + sum of row hashes.

    Both parts are additive, so the expected digest of a mutating table is
    kept current by adding the appended rows' digest and subtracting the
    deleted rows' (see the ingest workload).
    """

    rows: int
    checksum: int

    def __add__(self, other: "Digest") -> "Digest":
        return Digest(self.rows + other.rows, (self.checksum + other.checksum) % 2**64)

    def __sub__(self, other: "Digest") -> "Digest":
        return Digest(self.rows - other.rows, (self.checksum - other.checksum) % 2**64)


def digest_columns(columns, count: int) -> Digest:
    """Digest ``count`` rows given as ``(values, null_mask | None)`` column pairs.

    String cells go through ``hash()``, which is salted per process — digests
    are only ever compared inside the process that computed them.
    """
    rows = np.zeros(count, dtype=np.uint64)
    for values, nulls in columns:
        if values.dtype == object:
            cells = np.fromiter((hash(v) for v in values), dtype=np.int64, count=count)
        elif values.dtype == np.bool_:
            cells = values.astype(np.int64)
        else:
            cells = np.ascontiguousarray(values)
        cells = cells.view(np.uint64)
        if nulls is not None and nulls.any():
            cells = np.where(nulls, _NULL, cells)
        rows = (rows ^ cells) * _MIX
        rows ^= rows >> np.uint64(29)
    return Digest(count, int(rows.sum(dtype=np.uint64)))


def digest_result(result) -> Digest:
    """Digest of a :class:`repro.engine.result.QueryResult`'s output rows."""
    return digest_columns(result.output.columns, result.row_count)


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #
class SpanLog:
    """In-memory span store: name, start, end, parent, operation id.

    Spans come from three places: ``span()`` blocks in the benchmark's own
    code, ``wrap()`` shims around public entry points of the layers (installed
    for traced runs only, removed by ``unwrap_all``), and the engine's own
    ``trace=True`` span tree, copied in by ``adopt`` (operator self-times
    arrive there as ``operator:<Class>#<node>`` spans).
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list] = []  # [name, start, end, parent index, operation id]
        self.operation: int | None = None
        self._open: list[int] = []
        self._wrapped: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block; yields the span's index."""
        parent = self._open[-1] if self._open else None
        self.spans.append([name, now(), None, parent, self.operation])
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index][2] = now()

    def wrap(self, owner, attr: str, name: str, on_result: Callable | None = None) -> None:
        """Replace ``owner.attr`` with a shim that records a span per call."""
        call = getattr(owner, attr)
        self._wrapped.append((owner, attr, inspect.getattr_static(owner, attr)))

        def shim(*args, **kwargs):
            with self.span(name):
                result = call(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        # A classmethod is reached through the class, so the shim (a plain
        # function calling the already-bound original) must not bind again.
        setattr(owner, attr, staticmethod(shim) if inspect.ismethod(call) else shim)

    def unwrap_all(self) -> None:
        while self._wrapped:
            owner, attr, original = self._wrapped.pop()
            setattr(owner, attr, original)

    def adopt(self, tracer, parent: int) -> None:
        """Copy an engine :class:`repro.obs.trace.Tracer` tree under span ``parent``."""

        def copy(span, parent):
            operation = self.spans[parent][4]
            self.spans.append([span.name, span.start, span.end, parent, operation])
            index = len(self.spans) - 1
            for child in span.children:
                copy(child, index)

        for root in tracer.roots:
            copy(root, parent)

    def total_ms(self, name: str) -> float:
        """Summed duration of every finished span called ``name``."""
        return sum((s[2] - s[1]) for s in self.spans if s[0] == name and s[2] is not None) * 1e3

    def per_operation_ms(self) -> dict[int, dict[str, float]]:
        """operation id -> layer name -> summed milliseconds."""
        totals: dict[int, dict[str, float]] = {}
        for name, start, end, _parent, operation in self.spans:
            if operation is None or end is None:
                continue
            bucket = totals.setdefault(operation, {})
            layer = layer_of(name)
            bucket[layer] = bucket.get(layer, 0.0) + (end - start) * 1e3
        return totals

    def to_json(self) -> list[dict]:
        return [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "operation": operation,
                "workload": self.workload,
            }
            for name, start, end, parent, operation in self.spans
        ]


def layer_of(span_name: str) -> str:
    """Fold engine operator spans into one name per operator kind."""
    if span_name.startswith("operator:"):
        label = span_name[len("operator:"):]
        for kind in ("Scan", "Filter", "Join"):
            if label.startswith(kind):
                return f"physical.{kind.lower()}"
        return "physical.project"
    return span_name


# --------------------------------------------------------------------------- #
# Windows
# --------------------------------------------------------------------------- #
class Op(NamedTuple):
    """One operation of a pass."""

    kind: str  # "read", "commit" or "compact"
    key: str
    call: Callable[[bool], object]  # call(trace) -> result
    check: Callable[[object], bool]  # is the result the expected one?


class Done(NamedTuple):
    """One finished operation of a window."""

    operation: int
    kind: str
    key: str
    seconds: float
    cache_hit: bool | None  # reads only
    #: The operation's result; kept only for the first ``min_passes`` passes of
    #: a traced window — enough for the work counters, which must not depend
    #: on how many passes fit in the time.
    result: object | None


@dataclass
class Window:
    """What one measured window observed."""

    ops: list[Done] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    passes: int = 0

    @property
    def kept(self) -> list[Done]:
        return [op for op in self.ops if op.result is not None]

    def latencies(self, kind: str) -> list[float]:
        return [op.seconds for op in self.ops if op.kind == kind]

    def steady(self, kind: str | None = None) -> list[float]:
        """Latencies with every operation's replaced by the best of its statement.

        The hosts this runs on are shared: a fixed CPU loop swings by 10-15 %
        for seconds at a time, and only the fastest observation of a piece of
        work repeats from run to run.  Every operation still counts once, so
        percentiles over the result keep the workload's statement mix.
        """
        best: dict[tuple[str, str], float] = {}
        for op in self.ops:
            statement = (op.kind, op.key)
            best[statement] = min(best.get(statement, op.seconds), op.seconds)
        return [best[op.kind, op.key] for op in self.ops if kind in (None, op.kind)]


def percentile_ms(seconds: list[float], q: float) -> float:
    """Nearest-rank percentile, in milliseconds (0 for no samples)."""
    values = sorted(seconds)
    if not values:
        return 0.0
    return values[min(len(values) - 1, int(q * len(values)))] * 1e3


def run_window(workload, seconds: float, spans: SpanLog, trace: bool) -> Window:
    """Issue whole passes until ``seconds`` have gone by (at least ``min_passes``)."""
    window = Window()
    operation = len(spans.spans)  # unique across the windows of one run
    workload.begin_window()
    deadline = now() + seconds
    while window.passes < workload.min_passes or now() < deadline:
        for op in workload.operations():
            operation += 1
            spans.operation = operation
            window.attempted += 1
            op_span = None
            started = now()
            try:
                if trace:
                    with spans.span(f"op.{op.kind}") as op_span:
                        result = op.call(True)
                else:
                    result = op.call(False)
            except Exception:  # the loop must outlive a failing operation
                traceback.print_exc(file=sys.stderr)
                window.failed += 1
                continue
            elapsed = now() - started
            if op_span is not None and getattr(result, "trace", None) is not None:
                spans.adopt(result.trace, op_span)
            if not op.check(result):
                print(f"wrong result: {workload.name} {op.kind} {op.key}", file=sys.stderr)
                window.failed += 1
            keep = trace and window.passes < workload.min_passes
            window.ops.append(
                Done(
                    operation,
                    op.kind,
                    op.key,
                    elapsed,
                    result.cache_hit if op.kind == "read" else None,
                    result if keep else None,
                )
            )
        window.passes += 1
    spans.operation = None
    return window


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
