"""Structured query tracing: hierarchical span trees with operator timing.

A :class:`Tracer` rides on :class:`~repro.engine.metrics.ExecContext` exactly
like ``ExecutionMetrics`` does: opt-in, forked per morsel worker, shipped
across shard-process boundaries as plain data, and merged back through the
same ``fork``/``absorb`` path — so a traced query yields one span tree no
matter how many threads or processes executed it.

Two kinds of timing live here:

* **Spans** — named intervals (``query`` → ``plan`` / ``execute`` →
  ``morsel`` / ``shard.scatter_gather`` → ``postprocess``, plus ambient
  ``wal.commit`` / ``recovery`` / ``compaction`` spans) forming a tree.
  Spans carry attributes (the existing counters hitch a ride here).
* **Operator timings** — per-``PhysicalOperator`` accumulators fed by
  :meth:`Tracer.op_enter` / :meth:`Tracer.op_exit` around ``run``.
  A span per operator run would drown the tree, so operators accumulate
  ``(inclusive, self, calls)`` triples instead; ``calls`` counts ``run``
  invocations (one per morsel the operator's tree ran in), and ``self``
  subtracts child operators' time via a shadow stack, so self-times are
  additive and their sum is bounded by the execution span on a serial run.

Export formats: :meth:`Tracer.to_dict` / :meth:`Tracer.to_json` (plain tree)
and :meth:`Tracer.to_chrome_trace` (Chrome ``chrome://tracing`` /  Perfetto
trace-event JSON).

Mutation-side code (WAL, recovery, compaction) is not reached by an
``ExecContext``, so it publishes through an *ambient* tracer instead: wrap a
region in ``with tracer.activate():`` and nested code can open spans via the
module-level :func:`ambient_span` helper, which is a no-op when no tracer is
active — keeping the untraced hot path free of any bookkeeping.

All timestamps are ``time.perf_counter()`` values: meaningful within one
process only, which is why cross-process payloads are re-anchored on absorb
(durations stay exact; only the offset between processes is approximate).
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One named interval in the trace tree."""

    name: str
    start: float
    end: float | None = None
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


def _span_to_payload(span: Span) -> dict:
    return {
        "name": span.name,
        "start": span.start,
        "end": span.end if span.end is not None else span.start,
        "attrs": dict(span.attrs),
        "children": [_span_to_payload(child) for child in span.children],
    }


def _span_from_payload(payload: dict, shift: float) -> Span:
    return Span(
        name=payload["name"],
        start=payload["start"] + shift,
        end=payload["end"] + shift,
        attrs=dict(payload["attrs"]),
        children=[
            _span_from_payload(child, shift) for child in payload["children"]
        ],
    )


class Tracer:
    """Collects one query's span tree and operator timings.

    Not thread-safe by design: every morsel worker gets its own tracer via
    :meth:`fork` and the parent merges them after the workers join, mirroring
    how ``ExecutionMetrics`` avoids locks.
    """

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        # (node_id, label) -> [inclusive_seconds, self_seconds, calls]
        self.op_totals: dict[tuple[int, str], list] = {}
        self._op_stack: list[float] = []

    # ------------------------------------------------------------------ spans

    def begin(self, name: str, **attrs) -> Span:
        """Open a span as a child of the innermost open span."""
        span = Span(name=name, start=time.perf_counter(), attrs=attrs)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def end(self, **attrs) -> Span:
        """Close the innermost open span, merging ``attrs`` into it."""
        if not self._stack:
            raise RuntimeError("Tracer.end() with no open span")
        span = self._stack.pop()
        span.end = time.perf_counter()
        if attrs:
            span.attrs.update(attrs)
        return span

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """``with tracer.span("execute"):`` — begin/end around a block."""
        span = self.begin(name, **attrs)
        try:
            yield span
        finally:
            # The block may have leaked child spans on error; close them so
            # the tree stays well-formed.
            while self._stack and self._stack[-1] is not span:
                self.end()
            if self._stack and self._stack[-1] is span:
                self.end()

    def annotate(self, **attrs) -> None:
        """Attach attributes to the innermost open span (no-op at top level)."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    def add_synthetic(self, name: str, seconds: float, **attrs) -> Span:
        """Record a span for work that happened before tracing could start.

        Used to backfill e.g. planning time measured by the caller (a plan
        may come from the cache, planned long before this execution).  The
        span is pinned to the start of the innermost open span so the tree
        reads in causal order; ``synthetic: true`` marks the approximation.
        """
        if self._stack:
            parent = self._stack[-1]
            start = parent.start
            children = parent.children
        else:
            start = time.perf_counter() - seconds
            children = self.roots
        span = Span(
            name=name,
            start=start,
            end=start + seconds,
            attrs={"synthetic": True, **attrs},
        )
        children.append(span)
        return span

    # -------------------------------------------------------- operator timing

    def op_enter(self) -> float:
        """Start timing one operator ``run`` call; returns the start stamp."""
        self._op_stack.append(0.0)
        return time.perf_counter()

    def op_exit(self, node_id: int, label: str, started: float) -> None:
        """Finish timing one operator ``run`` call.

        ``self`` time subtracts the time spent inside child operators'
        ``run`` calls, which the shadow stack accumulated while this
        frame was open.
        """
        elapsed = time.perf_counter() - started
        child_seconds = self._op_stack.pop()
        if self._op_stack:
            self._op_stack[-1] += elapsed
        totals = self.op_totals.get((node_id, label))
        if totals is None:
            totals = [0.0, 0.0, 0]
            self.op_totals[(node_id, label)] = totals
        totals[0] += elapsed
        totals[1] += elapsed - child_seconds
        totals[2] += 1

    def operator_timings(self) -> dict[int, dict]:
        """Per-node timing summary keyed by plan node id.

        ``{node_id: {"label", "seconds", "self_seconds", "calls"}}`` —
        ``seconds`` is inclusive of child operators (what EXPLAIN ANALYZE
        shows), ``self_seconds`` is exclusive (additive across operators),
        ``calls`` is the number of ``run`` invocations (one per morsel).
        """
        out: dict[int, dict] = {}
        for (node_id, label), (incl, self_s, calls) in self.op_totals.items():
            entry = out.get(node_id)
            if entry is None:
                out[node_id] = {
                    "label": label,
                    "seconds": incl,
                    "self_seconds": self_s,
                    "calls": calls,
                }
            else:
                entry["seconds"] += incl
                entry["self_seconds"] += self_s
                entry["calls"] += calls
        return out

    # ---------------------------------------------------------- fork / absorb

    def fork(self) -> "Tracer":
        """A fresh tracer for a worker; merge it back with :meth:`absorb`."""
        return Tracer()

    def absorb(self, child: "Tracer") -> None:
        """Merge a forked tracer: re-parent its spans, sum its op timings."""
        if child is None or child is self:
            return
        if self._stack:
            self._stack[-1].children.extend(child.roots)
        else:
            self.roots.extend(child.roots)
        self._merge_op_totals(child.op_totals)

    def _merge_op_totals(self, other: dict) -> None:
        for key, (incl, self_s, calls) in other.items():
            totals = self.op_totals.get(key)
            if totals is None:
                self.op_totals[key] = [incl, self_s, calls]
            else:
                totals[0] += incl
                totals[1] += self_s
                totals[2] += calls

    # ------------------------------------------------- cross-process shipping

    def to_payload(self) -> dict:
        """Plain-data form for shipping across a process boundary."""
        return {
            "roots": [_span_to_payload(span) for span in self.roots],
            "op_totals": [
                [node_id, label, incl, self_s, calls]
                for (node_id, label), (incl, self_s, calls) in self.op_totals.items()
            ],
        }

    def absorb_payload(self, payload: dict) -> None:
        """Merge a worker-process payload, re-anchoring its clock.

        ``perf_counter`` origins differ between processes, so remote spans
        are shifted to start at the innermost open span here (durations are
        exact; the offset between processes is approximate by nature).
        """
        if not payload:
            return
        roots = payload.get("roots", ())
        if roots:
            starts = [span["start"] for span in roots]
            anchor = (
                self._stack[-1].start if self._stack else time.perf_counter()
            )
            shift = anchor - min(starts)
            shifted = [_span_from_payload(span, shift) for span in roots]
            if self._stack:
                self._stack[-1].children.extend(shifted)
            else:
                self.roots.extend(shifted)
        self._merge_op_totals(
            {
                (node_id, label): [incl, self_s, calls]
                for node_id, label, incl, self_s, calls in payload.get(
                    "op_totals", ()
                )
            }
        )

    # ----------------------------------------------------------------- export

    def _origin(self) -> float:
        if self.roots:
            return min(span.start for span in self.roots)
        return 0.0

    def to_dict(self) -> dict:
        """The trace as a plain dictionary (times relative to trace start)."""
        origin = self._origin()

        def convert(span: Span) -> dict:
            return {
                "name": span.name,
                "start_s": round(span.start - origin, 9),
                "duration_s": round(span.duration, 9),
                "attrs": dict(span.attrs),
                "children": [convert(child) for child in span.children],
            }

        return {
            "spans": [convert(span) for span in self.roots],
            "operators": {
                str(node_id): timing
                for node_id, timing in sorted(self.operator_timings().items())
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        """:meth:`to_dict` rendered as JSON."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_chrome_trace(self) -> dict:
        """The trace in Chrome trace-event format (load in ``chrome://tracing``
        or Perfetto).  Spans become complete events (``ph: "X"``) with
        microsecond timestamps; operator totals become one event each at the
        trace origin so their relative weight is visible on the timeline.
        """
        origin = self._origin()
        events: list[dict] = []

        def emit(span: Span) -> None:
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 0,
                    "tid": 0,
                    "args": dict(span.attrs),
                }
            )
            for child in span.children:
                emit(child)

        for span in self.roots:
            emit(span)
        for node_id, timing in sorted(self.operator_timings().items()):
            events.append(
                {
                    "name": f"op:{timing['label']}#{node_id}",
                    "ph": "X",
                    "ts": 0.0,
                    "dur": timing["seconds"] * 1e6,
                    "pid": 0,
                    "tid": 1,
                    "args": {
                        "calls": timing["calls"],
                        "self_seconds": timing["self_seconds"],
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    # ---------------------------------------------------------------- ambient

    def activate(self):
        """Install this tracer as the ambient one for the enclosed block.

        Code without an ``ExecContext`` in reach (WAL commit, recovery,
        compaction) opens spans through :func:`ambient_span`, which finds
        the tracer installed here.
        """
        return _activation(self)


_AMBIENT: contextvars.ContextVar[Tracer | None] = contextvars.ContextVar(
    "repro_ambient_tracer", default=None
)


@contextlib.contextmanager
def _activation(tracer: Tracer):
    token = _AMBIENT.set(tracer)
    try:
        yield tracer
    finally:
        _AMBIENT.reset(token)


def current_tracer() -> Tracer | None:
    """The ambient tracer installed by :meth:`Tracer.activate`, if any."""
    return _AMBIENT.get()


@contextlib.contextmanager
def ambient_span(name: str, **attrs):
    """Open ``name`` on the ambient tracer; a no-op when tracing is off.

    This is the single line mutation-side call sites pay:
    ``with ambient_span("wal.commit", ops=len(ops)):`` — when no tracer is
    active the cost is one context-variable read.
    """
    tracer = _AMBIENT.get()
    if tracer is None:
        yield None
        return
    with tracer.span(name, **attrs) as span:
        yield span
