"""Text-rendering helpers: tables, series, telemetry columns, and the
EXPERIMENTS.md table filler."""

import importlib.util
import pathlib

from repro.bench.reporting import (format_series, format_table,
                                   telemetry_summary)


class TestFormatTable:
    def test_alignment_and_floats(self):
        text = format_table(["Name", "Value"],
                            [["a", 1.2345], ["longer", 2]], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.23" in text  # floats render at two decimals
        assert "2" in text
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1  # every rendered row aligns

    def test_no_title(self):
        text = format_table(["H"], [["x"]])
        assert text.splitlines()[0] == "H"


class TestFormatSeries:
    def test_dense_series(self):
        text = format_series("S", "x", (1, 2),
                             {"a": {1: 1.0, 2: 2.0},
                              "b": {1: 3.0, 2: 4.0}})
        assert "1.00" in text and "4.00" in text
        assert text.splitlines()[2].split("|")[0].strip() == "x"

    def test_sparse_series_renders_empty_cells(self):
        # A series missing some x values must render blanks, not crash.
        text = format_series("S", "c", (4, 8, 16),
                             {"full": {4: 1.0, 8: 2.0, 16: 3.0},
                              "sparse": {8: 9.0}})
        rows = text.splitlines()[4:]
        assert len(rows) == 3
        row4 = rows[0].split("|")
        assert row4[0].strip() == "4"
        assert row4[2].strip() == ""  # sparse has no value at x=4
        assert rows[1].split("|")[2].strip() == "9.00"

    def test_entirely_empty_series(self):
        text = format_series("S", "x", (1, 2), {"none": {}})
        rows = text.splitlines()[4:]
        assert all(row.split("|")[1].strip() == "" for row in rows)

    def test_non_float_cells(self):
        # x values and cells may be strings or ints; ints pass through
        # unrounded and strings verbatim.
        text = format_series("S", "depth", ("a", 2),
                             {"s": {"a": "n/a", 2: 7}})
        assert "n/a" in text
        body = text.splitlines()[5]
        assert body.split("|")[1].strip() == "7"
        assert "7.00" not in text

    def test_no_xs(self):
        text = format_series("S", "x", (), {"a": {1: 1.0}})
        # Title, rule, header, separator — and no data rows.
        assert len(text.splitlines()) == 4


class TestTelemetrySummary:
    def test_empty_for_missing_snapshot(self):
        assert telemetry_summary(None) == {}
        assert telemetry_summary({}) == {}

    def test_columns_from_snapshot(self):
        snap = {"prefetch": {"issued": 10, "accuracy": 0.5,
                             "outcomes": {"timely": 4, "late": 1}}}
        summary = telemetry_summary(snap)
        assert summary == {"Pf issued": 10, "Pf timely": 4,
                           "Pf late": 1, "Pf accuracy": 0.5}


class TestFillExperiments:
    def test_every_block_names_an_archived_table(self):
        """A misspelt name would make a refresh overwrite a measured
        table with a "(not yet measured)" placeholder."""
        path = (pathlib.Path(__file__).resolve().parent.parent
                / "tools" / "fill_experiments.py")
        spec = importlib.util.spec_from_file_location(
            "fill_experiments", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        missing = [name for names in tool.BLOCKS.values()
                   for name in names
                   if not (tool.RESULTS / name).is_file()]
        assert missing == []
