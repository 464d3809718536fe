"""Unit tests for Store."""

from repro.sim import Simulator, Store


class TestStore:
    def test_fifo_items(self):
        sim = Simulator()
        s = Store(sim)
        s.put("a")
        s.put("b")
        got = []
        s.get().add_callback(lambda e: got.append(e.value))
        s.get().add_callback(lambda e: got.append(e.value))
        assert got == ["a", "b"]

    def test_get_waits_for_put(self):
        sim = Simulator()
        s = Store(sim)
        got = []
        s.get().add_callback(lambda e: got.append(e.value))
        assert got == []
        s.put("x")
        assert got == ["x"]

    def test_fifo_getters(self):
        sim = Simulator()
        s = Store(sim)
        got = []
        s.get().add_callback(lambda e: got.append(("g1", e.value)))
        s.get().add_callback(lambda e: got.append(("g2", e.value)))
        s.put(1)
        s.put(2)
        assert got == [("g1", 1), ("g2", 2)]

    def test_len_and_items(self):
        sim = Simulator()
        s = Store(sim)
        assert len(s) == 0
        s.put("a")
        s.put("b")
        assert len(s) == 2
        assert s.items == ["a", "b"]

    def test_cancel_get(self):
        sim = Simulator()
        s = Store(sim)
        ev = s.get()
        assert s.cancel_get(ev) is True
        assert s.cancel_get(ev) is False
        s.put("a")  # must not be stolen by the cancelled getter
        assert len(s) == 1
