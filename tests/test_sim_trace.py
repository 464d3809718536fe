"""Unit tests for the run trace."""

from repro.sim import Trace


def test_emit_and_select():
    t = Trace()
    t.emit(1.0, "repair.start", client="C3")
    t.emit(2.0, "repair.end", client="C3")
    t.emit(3.0, "runtime.server.activate", server="S4")
    assert len(t) == 3
    assert [r.category for r in t.select("repair.")] == ["repair.start", "repair.end"]


def test_select_time_window():
    t = Trace()
    for i in range(5):
        t.emit(float(i), "x.tick", i=i)
    recs = t.select("x.", start=1.0, end=3.0)
    assert [r.time for r in recs] == [1.0, 2.0, 3.0]


def test_subscription():
    t = Trace()
    seen = []
    t.subscribe(lambda r: seen.append(r.category))
    t.emit(0.0, "a.b")
    assert seen == ["a.b"]


def test_str_rendering():
    t = Trace()
    rec = t.emit(1.5, "cat.x", foo=1, bar="z")
    s = str(rec)
    assert "cat.x" in s and "foo=1" in s and "bar=z" in s


def test_dump_filters_by_prefix():
    t = Trace()
    t.emit(0.0, "a.one")
    t.emit(1.0, "b.two")
    assert "b.two" not in t.dump("a.")
