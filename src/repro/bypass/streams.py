"""Streams: the unit of data flow in the bypass execution model.

A :class:`Relation` is a plain (untagged) index relation: like Basilisk's
intermediate relations its rows are tuples of indices into the base tables,
but there are no slices, so routing a row anywhere means copying it.
A :class:`BypassStream` couples such a relation with the truth
assignments (a :class:`~repro.core.tags.Tag`) its tuples are known to
satisfy.  Unlike a tagged relation — where all slices share one physical
relation and only bitmaps differ — every stream owns its own relation, so
routing a tuple into a different stream copies its index row.  That copying
is one of the overheads tagged execution removes, and keeping it here is what
makes the bypass model an honest comparator.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

import numpy as np

from repro.core.tags import Tag
from repro.storage.table import Table


class Relation:
    """An untagged index relation: alias -> row-index arrays of one length."""

    def __init__(
        self,
        tables: Mapping[str, Table],
        indices: Mapping[str, np.ndarray],
    ) -> None:
        self.tables = dict(tables)
        self.indices = {alias: np.asarray(idx, dtype=np.int64) for alias, idx in indices.items()}
        lengths = {idx.shape[0] for idx in self.indices.values()}
        if len(lengths) > 1:
            raise ValueError(f"index arrays have differing lengths: {lengths}")
        self._num_rows = lengths.pop() if lengths else 0

    @classmethod
    def from_base_table(cls, alias: str, table: Table) -> "Relation":
        """Relation over every row of a base table."""
        return cls({alias: table}, {alias: np.arange(table.num_rows, dtype=np.int64)})

    @classmethod
    def merge(cls, relations: list["Relation"]) -> "Relation":
        """Concatenate relations over the same alias set, in order."""
        if len(relations) == 1:
            return relations[0]
        tables = {}
        for relation in relations:
            tables.update(relation.tables)
        indices = {
            alias: np.concatenate([relation.indices[alias] for relation in relations])
            for alias in relations[0].indices
        }
        return cls(tables, indices)

    @property
    def num_rows(self) -> int:
        """Number of tuples in the relation."""
        return self._num_rows

    @property
    def aliases(self) -> list[str]:
        """Aliases joined into this relation."""
        return list(self.indices)

    def take(self, positions: np.ndarray) -> "Relation":
        """A new relation containing only the rows at ``positions``."""
        return Relation(
            self.tables,
            {alias: idx[positions] for alias, idx in self.indices.items()},
        )

    def __repr__(self) -> str:
        return f"Relation(aliases={self.aliases}, rows={self.num_rows})"


class BypassStream:
    """One stream: a relation plus the assignments its tuples satisfy."""

    __slots__ = ("tag", "relation")

    def __init__(self, tag: Tag, relation: Relation) -> None:
        self.tag = tag
        self.relation = relation

    @property
    def num_rows(self) -> int:
        """Number of tuples currently in the stream."""
        return self.relation.num_rows

    @property
    def aliases(self) -> list[str]:
        """Base-table aliases joined into this stream."""
        return self.relation.aliases

    @classmethod
    def from_base_table(cls, alias: str, table: Table) -> "BypassStream":
        """The initial stream over every row of a base table (empty tag)."""
        return cls(Tag.empty(), Relation.from_base_table(alias, table))

    def take(self, positions: np.ndarray, tag: Tag) -> "BypassStream":
        """A new stream holding the rows at ``positions`` under ``tag``."""
        return BypassStream(tag, self.relation.take(positions))

    def __repr__(self) -> str:
        return f"BypassStream(tag={self.tag!r}, rows={self.num_rows})"


class StreamSet:
    """An ordered collection of streams flowing between bypass operators.

    Streams are pairwise disjoint by construction (filters partition their
    input, joins combine disjoint partitions), so collecting the final result
    is a plain concatenation — no union/deduplication operator is needed.
    Streams that end up with the same tag are merged, which keeps the number
    of streams bounded by the number of distinct (generalized) tags, exactly
    like the tag space of tagged execution.
    """

    def __init__(self, streams: Iterable[BypassStream] = ()) -> None:
        self._streams: list[BypassStream] = []
        for stream in streams:
            self.add(stream)

    @classmethod
    def from_scan(cls, alias: str, table: Table, positions: np.ndarray, metrics) -> "StreamSet":
        """The batch a scan emits: one stream over ``positions``, empty tag."""
        metrics.streams_created += 1
        return cls([BypassStream(Tag.empty(), Relation({alias: table}, {alias: positions}))])

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
    def add(self, stream: BypassStream) -> None:
        """Add a stream, merging it into an existing stream with the same tag."""
        if stream.num_rows == 0:
            return
        for position, existing in enumerate(self._streams):
            if existing.tag == stream.tag:
                self._streams[position] = _merge_streams(existing, stream)
                return
        self._streams.append(stream)

    def extend(self, streams: Iterable[BypassStream]) -> None:
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
        return sum(stream.num_rows for stream in self._streams)

    @property
    def live_rows(self) -> int:
        """Live tuples (streams hold materialized rows only)."""
        return self.total_rows

    def streams(self) -> list[BypassStream]:
        """The streams, in insertion order."""
        return list(self._streams)

    def tags(self) -> list[Tag]:
        """The tag of each stream, in insertion order."""
        return [stream.tag for stream in self._streams]

    def __iter__(self) -> Iterator[BypassStream]:
        return iter(self._streams)

    def __len__(self) -> int:
        return len(self._streams)

    def __bool__(self) -> bool:
        return bool(self._streams)

    def __repr__(self) -> str:
        return f"StreamSet(streams={self.num_streams}, rows={self.total_rows})"


def _merge_streams(first: BypassStream, second: BypassStream) -> BypassStream:
    """Concatenate two streams that carry the same tag."""
    if first.tag != second.tag:
        raise ValueError(
            f"cannot merge streams with different tags: {first.tag!r} vs {second.tag!r}"
        )
    return BypassStream(first.tag, Relation.merge([first.relation, second.relation]))
