"""I/O accounting for the simulated storage layer.

Basilisk reads column data from disk with direct I/O and routes the reads
through an LFU page cache; which pages get touched depends on the row positions
driving each read (Section 2.5 of the paper).  Real disk I/O is out of scope
for a pure-Python reproduction, so instead every column read is *accounted*:
the number of pages touched, the number of cache hits/misses, and whether the
read fell back to a full sequential scan are all recorded here.

The counters let benchmarks compare how much "I/O work" the tagged and
traditional execution models cause, independently of Python's constant
factors.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class IOStats:
    """Mutable counters describing simulated storage traffic.

    Attributes:
        pages_read: pages fetched from "disk" (cache misses).
        pages_hit: pages served from the page cache.
        sequential_scans: number of reads that fell back to scanning the
            whole column sequentially (reads of many positions).
        selective_reads: number of reads served page-by-page (reads of few
            positions).
        values_read: total number of individual cell values materialized.
    """

    pages_read: int = 0
    pages_hit: int = 0
    sequential_scans: int = 0
    selective_reads: int = 0
    values_read: int = 0

    def record_pages(self, misses: int, hits: int) -> None:
        """Record the outcome of a page-granular read."""
        self.pages_read += misses
        self.pages_hit += hits

    def record_sequential_scan(self, num_pages: int) -> None:
        """Record a full-column sequential scan of ``num_pages`` pages."""
        self.sequential_scans += 1
        self.pages_read += num_pages

    def record_selective_read(self) -> None:
        """Record a page-by-page read of selected positions."""
        self.selective_reads += 1

    def record_values(self, count: int) -> None:
        """Record that ``count`` cell values were materialized."""
        self.values_read += count

    def merge(self, other: "IOStats") -> None:
        """Accumulate another stats object into this one.

        Parallel execution gives every morsel a private ``IOStats`` and
        reduces them into the query's stats at the end, so counters are never
        racily incremented from two threads.
        """
        self.pages_read += other.pages_read
        self.pages_hit += other.pages_hit
        self.sequential_scans += other.sequential_scans
        self.selective_reads += other.selective_reads
        self.values_read += other.values_read

    def as_dict(self) -> dict[str, int]:
        """Return the counters as a plain dictionary (for reports)."""
        return {
            "pages_read": self.pages_read,
            "pages_hit": self.pages_hit,
            "sequential_scans": self.sequential_scans,
            "selective_reads": self.selective_reads,
            "values_read": self.values_read,
        }
