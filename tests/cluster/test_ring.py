"""Consistent-hash ring: stable, spread placement."""

from __future__ import annotations

import pytest

from repro.cluster.ring import HashRing


class TestLookup:
    def test_deterministic_across_instances(self):
        a = HashRing(range(4))
        b = HashRing(range(4))
        keys = [f"key-{i}" for i in range(200)]
        assert [a.lookup(k) for k in keys] == [b.lookup(k) for k in keys]

    def test_every_shard_owns_some_keyspace(self):
        ring = HashRing(range(4))
        owners = {ring.lookup(f"key-{i}") for i in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_single_shard_owns_everything(self):
        ring = HashRing([7])
        assert all(ring.lookup(f"k{i}") == 7 for i in range(50))

    def test_requires_a_shard(self):
        with pytest.raises(ValueError):
            HashRing([])

    def test_points_validation(self):
        with pytest.raises(ValueError):
            HashRing([0], points=0)
