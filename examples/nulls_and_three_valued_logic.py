"""NULL handling: tagged execution under three-valued logic (Section 3.4).

Builds a small movie catalog where some scores and years are NULL, and shows
that tagged execution produces exactly the rows SQL semantics demand (a WHERE
clause only passes rows whose predicate is TRUE, never UNKNOWN) while still
agreeing with traditional execution.

The tag logic is not configured: a query whose predicates meet a NULL column
plans three-valued tag maps, one over NULL-free columns plans the smaller
two-valued ones.

Run with::

    python examples/nulls_and_three_valued_logic.py
"""

import sys
from pathlib import Path

# Allow running from a fresh checkout: prefer the in-repo package.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import Catalog, Session, Table
from repro.sql import parse_query

CATALOG = Catalog(
    [
        Table.from_dict(
            "title",
            {
                "id": [1, 2, 3, 4, 5, 6],
                "title": ["Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta"],
                "production_year": [2010, None, 1985, 2004, None, 1995],
            },
        ),
        Table.from_dict(
            "movie_info_idx",
            {
                "movie_id": [1, 2, 3, 4, 5, 6],
                "info": [8.4, 9.1, None, 7.2, 6.8, None],
            },
        ),
    ]
)

QUERY = """
SELECT t.title, t.production_year, mi.info
FROM title AS t JOIN movie_info_idx AS mi ON t.id = mi.movie_id
WHERE (t.production_year > 2000 AND mi.info > 7.0)
   OR (t.production_year > 1980 AND mi.info > 8.0)
"""

#: The same join, filtered on the two NULL-free columns only.
NULL_FREE_QUERY = """
SELECT t.title
FROM title AS t JOIN movie_info_idx AS mi ON t.id = mi.movie_id
WHERE t.id < 3 OR mi.movie_id > 5
"""


def main() -> None:
    session = Session(CATALOG)

    tagged = session.execute(QUERY, planner="tcombined")
    traditional = session.execute(QUERY, planner="bdisj")

    print("Tagged execution result:")
    for row in tagged.sorted_rows():
        print("   ", row)
    print("Traditional execution result:")
    for row in traditional.sorted_rows():
        print("   ", row)

    assert tagged.sorted_rows() == traditional.sorted_rows()
    print(
        "\nRows whose predicate evaluates to UNKNOWN (because a year or score is NULL)\n"
        "are excluded by both models, as the SQL standard requires.  Under tagged\n"
        "execution they are dropped as soon as their tag's root assignment becomes\n"
        "FALSE or UNKNOWN (Section 3.4, change 4).\n"
    )

    for label, sql in (("NULL-bearing", QUERY), ("NULL-free", NULL_FREE_QUERY)):
        logic = "three" if parse_query(sql).can_be_unknown(CATALOG) else "two"
        rows = session.execute(sql, planner="tcombined").row_count
        print(f"{label} predicates: planned with {logic}-valued tag maps, {rows} rows")


if __name__ == "__main__":
    main()
