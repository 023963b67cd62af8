"""Tags: truth-value assignments to predicate subexpressions.

A tag is a set of assignments ``<expr> = T/F/U`` where ``<expr>`` is an
arbitrarily complex boolean subexpression of the query's predicate
(Section 2.1).  Expressions are identified by their canonical structural key
(:meth:`repro.expr.ast.BooleanExpr.key`), so the same subexpression appearing
in different places is recognized as one expression.

Tags are immutable and hashable: they label the slices of tagged relations
and serve as dictionary keys in tag maps.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.expr.three_valued import TruthValue


class Tag:
    """An immutable set of ``expression-key -> TruthValue`` assignments."""

    __slots__ = ("_values", "_hash")

    def __init__(self, assignments: Mapping[str, TruthValue] | None = None) -> None:
        items = assignments.items() if assignments else ()
        self._set({key: TruthValue(value) for key, value in items})

    def _set(self, values: dict[str, TruthValue]) -> None:
        self._values = dict(sorted(values.items()))
        self._hash = hash(tuple(self._values.items()))

    @classmethod
    def _of(cls, values: dict[str, TruthValue]) -> "Tag":
        """A tag over ``values`` that are already TruthValues.

        The derivation methods and tag generalization build tags this way;
        validation and coercion belong to the public constructor only.
        """
        tag = object.__new__(cls)
        tag._set(values)
        return tag

    def __reduce__(self):
        # Re-derive the hash where the tag is unpickled: string hashes differ
        # between interpreter processes.
        return (Tag._of, (self._values,))

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "Tag":
        """The empty tag ``{}`` carried by base tagged relations."""
        return _EMPTY_TAG

    @classmethod
    def single(cls, key: str, value: TruthValue) -> "Tag":
        """A tag with exactly one assignment."""
        return cls({key: value})

    # ------------------------------------------------------------------ #
    # Mapping-style access
    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict[str, TruthValue]:
        """The assignments as a mutable dictionary copy."""
        return dict(self._values)

    def get(self, key: str) -> TruthValue | None:
        """Assignment for ``key``, or None when unassigned."""
        return self._values.get(key)

    def keys(self) -> list[str]:
        """Assigned expression keys."""
        return list(self._values)

    def items(self) -> Iterator[tuple[str, TruthValue]]:
        """Iterate over (key, value) assignments."""
        return iter(self._values.items())

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def __len__(self) -> int:
        return len(self._values)

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def union(self, other: "Tag") -> "Tag":
        """Combine two tags' assignments.

        Conflicting assignments for the same key would describe an empty set
        of tuples; such unions raise :class:`ValueError` because tag-map
        builders never create them.
        """
        values = dict(self._values)
        for key, value in other._values.items():
            if values.setdefault(key, value) != value:
                raise ValueError(
                    f"conflicting assignments for {key!r}: "
                    f"{values[key]!s} vs {value!s}"
                )
        return Tag._of(values)

    # ------------------------------------------------------------------ #
    # Dunder / display
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tag):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._values:
            return "{}"
        rendered = ", ".join(f"{key} = {value!s}" for key, value in self._values.items())
        return "{" + rendered + "}"


_EMPTY_TAG = Tag()
