"""Unit tests for repro.util.ids and repro.util.rng."""

import numpy as np
import pytest

from repro.util.ids import IdGenerator
from repro.util.rng import SeedSequenceFactory, derive_rng


class TestIdGenerator:
    def test_sequential_per_prefix(self):
        ids = IdGenerator()
        assert ids.next("flow") == "flow-1"
        assert ids.next("flow") == "flow-2"
        assert ids.next("gauge") == "gauge-1"

    def test_peek_counts_issued(self):
        ids = IdGenerator()
        assert ids.peek("x") == 0
        ids.next("x")
        ids.next("x")
        assert ids.peek("x") == 2

    def test_independent_instances(self):
        a, b = IdGenerator(), IdGenerator()
        a.next("p")
        assert b.next("p") == "p-1"


class TestRng:
    def test_same_key_same_stream(self):
        f = SeedSequenceFactory(42)
        a = f.rng("client.C1").random(8)
        b = f.rng("client.C1").random(8)
        assert np.allclose(a, b)

    def test_different_keys_differ(self):
        f = SeedSequenceFactory(42)
        a = f.rng("client.C1").random(8)
        b = f.rng("client.C2").random(8)
        assert not np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = SeedSequenceFactory(1).rng("k").random(8)
        b = SeedSequenceFactory(2).rng("k").random(8)
        assert not np.allclose(a, b)

    def test_derive_rng_matches_factory(self):
        assert np.allclose(
            derive_rng(7, "x").random(4), SeedSequenceFactory(7).rng("x").random(4)
        )

    def test_rejects_non_int_seed(self):
        with pytest.raises(TypeError):
            SeedSequenceFactory("abc")  # type: ignore[arg-type]
