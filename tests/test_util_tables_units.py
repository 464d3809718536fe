"""Unit tests for plain-text rendering."""

import pytest

from repro.util.tables import ascii_sparkline, render_series, render_table


class TestRenderTable:
    def test_alignment_and_header(self):
        out = render_table(["name", "value"], [["latency", 1.5], ["load", 12]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "latency" in lines[2]
        assert "12" in lines[3]

    def test_title(self):
        out = render_table(["a"], [[1]], title="Table 1")
        assert out.splitlines()[0] == "Table 1"

    def test_float_formatting(self):
        out = render_table(["v"], [[0.000123456]])
        assert "0.000123" in out

    def test_zero(self):
        assert "0" in render_table(["v"], [[0.0]])


class TestSparkline:
    def test_monotone_values_monotone_chars(self):
        s = ascii_sparkline([1, 2, 3, 4, 5])
        assert s[0] <= s[-1]
        assert len(s) == 5

    def test_log_scale_ignores_nonpositive(self):
        s = ascii_sparkline([0.0, 1.0, 10.0], log=True)
        assert s[0] == " "

    def test_empty(self):
        assert ascii_sparkline([]) == ""

    def test_constant_series(self):
        s = ascii_sparkline([3.0, 3.0, 3.0])
        assert len(s) == 3


class TestRenderSeries:
    def test_contains_stats(self):
        out = render_series("latency", [0.0, 1.0, 2.0], [1.0, 5.0, 2.0], unit="s")
        assert "latency" in out
        assert "max=5" in out

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            render_series("x", [0.0], [1.0, 2.0])

    def test_empty_series(self):
        assert "(empty)" in render_series("x", [], [])

    def test_downsampling_width(self):
        times = list(range(1000))
        values = [float(i) for i in range(1000)]
        out = render_series("big", times, values, width=50)
        strip = out.splitlines()[1]
        assert len(strip.strip()) <= 60 + 2
