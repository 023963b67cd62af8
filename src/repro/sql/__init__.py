"""SQL front end.

A tokenizer and recursive-descent parser for the SQL subset used by the
paper's workloads: ``SELECT`` lists, ``FROM`` with inner ``JOIN ... ON``
equi-joins, and ``WHERE`` clauses made of comparisons, ``LIKE``/``ILIKE``,
``IN``, ``BETWEEN``, ``IS [NOT] NULL``, combined with ``AND`` / ``OR`` /
``NOT`` and parentheses.  ``parse_query`` returns a bound
:class:`~repro.plan.query.Query`.

``parse_query_cached`` memoizes parsing on the raw SQL text (after trivial
whitespace normalization).  The service layer uses it on its hot path:
repeated query texts skip the tokenizer and parser entirely.  Because cached
calls return the *same* :class:`~repro.plan.query.Query` object, callers
must treat the result as immutable — which every planner already does.
"""

from functools import lru_cache

from repro.sql.parser import ParseError, parse_expression, parse_query

#: Number of distinct query texts memoized by :func:`parse_query_cached`.
PARSE_CACHE_SIZE = 1024


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse_normalized(sql: str):
    return parse_query(sql)


def parse_query_cached(sql: str):
    """Parse ``sql`` into a bound Query, memoizing on the normalized text.

    Normalization collapses runs of whitespace so reformatted copies of one
    query (the common case in templated workloads) share a cache entry.
    Whitespace inside string literals is preserved by the conservative rule
    of only normalizing texts without quotes.
    """
    if "'" not in sql and '"' not in sql:
        sql = " ".join(sql.split())
    return _parse_normalized(sql)


def clear_parse_cache() -> None:
    """Drop all memoized parses (mainly for tests)."""
    _parse_normalized.cache_clear()


__all__ = [
    "ParseError",
    "parse_expression",
    "parse_query",
    "parse_query_cached",
    "clear_parse_cache",
    "PARSE_CACHE_SIZE",
]
