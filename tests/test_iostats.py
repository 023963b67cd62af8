"""Unit tests for I/O accounting."""

from repro.storage.iostats import IOStats


class TestCounters:
    def test_initial_state_is_zero(self):
        stats = IOStats()
        assert stats.pages_read == 0
        assert stats.pages_hit == 0
        assert stats.values_read == 0

    def test_record_pages(self):
        stats = IOStats()
        stats.record_pages(misses=3, hits=2)
        assert stats.pages_read == 3
        assert stats.pages_hit == 2

    def test_record_sequential_scan(self):
        stats = IOStats()
        stats.record_sequential_scan(num_pages=7)
        assert stats.sequential_scans == 1
        assert stats.pages_read == 7

    def test_record_selective_read(self):
        stats = IOStats()
        stats.record_selective_read()
        assert stats.selective_reads == 1

    def test_record_values(self):
        stats = IOStats()
        stats.record_values(100)
        stats.record_values(50)
        assert stats.values_read == 150

    def test_as_dict_keys(self):
        assert set(IOStats().as_dict()) == {
            "pages_read",
            "pages_hit",
            "sequential_scans",
            "selective_reads",
            "values_read",
        }
