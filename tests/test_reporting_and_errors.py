"""Reporting renderers and exception-hierarchy details."""

from repro import errors
from repro.experiment.reporting import render_workload
from repro.experiment.workload import build_workload


class TestRenderWorkload:
    def test_contains_phases_and_units(self):
        text = render_workload(build_workload(), "Figure 7")
        assert "Figure 7" in text
        for phase in ("quiescent", "bandwidth-competition", "stress", "recovery"):
            assert phase in text
        assert "avail SG1 (Mbps)" in text

    def test_row_per_breakpoint(self):
        wl = build_workload()
        text = render_workload(wl, "t")
        # title + header + separator + one row per breakpoint
        assert len(text.splitlines()) == 2 + 1 + len(wl.describe())


class TestErrors:
    def test_parse_error_position_formatting(self):
        err = errors.ParseError("bad token", line=3, column=7)
        assert "line 3" in str(err) and "column 7" in str(err)
        assert err.line == 3 and err.column == 7

    def test_parse_error_without_position(self):
        err = errors.ParseError("bad")
        assert str(err) == "bad"

    def test_repair_aborted_reason(self):
        err = errors.RepairAborted("NoServerGroupFound")
        assert err.reason == "NoServerGroupFound"
        assert "NoServerGroupFound" in str(err)

    def test_catching_base_catches_everything(self):
        for name in errors.__all__:
            exc_type = getattr(errors, name)
            try:
                if name == "ParseError":
                    raise exc_type("x", 1, 1)
                elif name == "RepairAborted":
                    raise exc_type("y")
                else:
                    raise exc_type("boom")
            except errors.ReproError:
                pass  # all library errors are catchable at the root
