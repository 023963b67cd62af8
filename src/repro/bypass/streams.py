"""Streams: the unit of data flow in the bypass execution model.

A stream is a :class:`~repro.core.tagged_relation.TaggedRelation` with one
full slice, keyed by the truth assignments (a :class:`~repro.core.tags.Tag`)
its tuples are known to satisfy — a traditional relation, in the paper's
terms, is a tagged relation with one tag.  What separates the bypass model
from tagged execution is not the relation type but how operators use it:
where a tagged relation keeps many slices over one physical relation and
re-labels rows in bitmaps, every stream owns its own index columns, so
routing a tuple into a different stream copies its index row
(:meth:`TaggedRelation.take`).  That copying is one of the overheads tagged
execution removes, and keeping it here is what makes the bypass model an
honest comparator.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.core.tagged_relation import TaggedRelation
from repro.core.tags import Tag
from repro.storage.table import Table


class StreamSet:
    """The streams flowing between bypass operators, keyed by tag.

    Streams are pairwise disjoint by construction (filters partition their
    input, joins combine disjoint partitions), so collecting the final result
    is a plain concatenation — no union/deduplication operator is needed.
    Streams that end up with the same tag are merged, which keeps the number
    of streams bounded by the number of distinct (generalized) tags, exactly
    like the tag space of tagged execution.
    """

    def __init__(self, streams: Iterable[TaggedRelation] = ()) -> None:
        self._streams: dict[Tag, TaggedRelation] = {}
        for stream in streams:
            self.add(stream)

    @classmethod
    def from_scan(cls, alias: str, table: Table, positions: np.ndarray, metrics) -> "StreamSet":
        """The batch a scan emits: one stream over ``positions``, empty tag."""
        metrics.streams_created += 1
        return cls([TaggedRelation.from_scan(alias, table, positions, metrics)])

    @classmethod
    def merge(cls, batches: list["StreamSet"]) -> "StreamSet":
        """Merge stream sets; streams with equal tags are concatenated in order."""
        if len(batches) == 1:
            return batches[0]
        merged = cls()
        for batch in batches:
            merged.extend(batch)
        return merged

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, stream: TaggedRelation) -> None:
        """Add a one-slice relation, merging it into the stream with its tag.

        An empty relation is dropped; one with several slices is not a
        stream and raises ``ValueError``.
        """
        if stream.num_rows == 0:
            return
        (tag,) = stream.slices
        existing = self._streams.get(tag)
        self._streams[tag] = (
            stream if existing is None else TaggedRelation.merge([existing, stream])
        )

    def extend(self, streams: Iterable[TaggedRelation]) -> None:
        """Add several streams."""
        for stream in streams:
            self.add(stream)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_streams(self) -> int:
        """Number of (non-empty) streams."""
        return len(self._streams)

    @property
    def total_rows(self) -> int:
        """Total tuples across all streams."""
        return sum(stream.num_rows for stream in self._streams.values())

    @property
    def live_rows(self) -> int:
        """Live tuples (streams hold materialized rows only)."""
        return self.total_rows

    def items(self) -> Iterable[tuple[Tag, TaggedRelation]]:
        """``(tag, stream)`` pairs, in insertion order."""
        return self._streams.items()

    def tags(self) -> list[Tag]:
        """The tag of each stream, in insertion order."""
        return list(self._streams)

    def __iter__(self) -> Iterator[TaggedRelation]:
        return iter(self._streams.values())

    def __len__(self) -> int:
        return len(self._streams)

    def __bool__(self) -> bool:
        return bool(self._streams)

    def __repr__(self) -> str:
        return f"StreamSet(streams={self.num_streams}, rows={self.total_rows})"
