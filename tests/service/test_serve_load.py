"""End-to-end run of the runner's ``service`` suite (slow: builds two
snowflake catalogs, overloads a service, spawns shard processes)."""

from __future__ import annotations

import pytest

from repro.bench.suites import service

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def block():
    blocks = service.run(
        scale=0.05,
        seed=7,
        distinct=3,
        requests=60,
        workers=1,
        cluster_scale=0.1,
        pairs=2,
        rounds=2,
    )
    assert service.render(blocks)
    return blocks["service"]


def test_open_loop_sheds_and_conserves(block):
    open_loop = block["open_loop"]
    assert open_loop["offered"] == 60
    assert open_loop["conservation_ok"] is True
    assert open_loop["served"] + open_loop["shed"] == open_loop["offered"]
    assert open_loop["clean_shutdown"] is True
    for key in ("p50_ms", "p95_ms", "p99_ms"):
        assert open_loop[key] >= 0.0


def test_cluster_block_compares_service_and_cluster(block):
    cluster = block["cluster"]
    assert cluster["cores"] >= 1
    assert cluster["service_workers"] == cluster["shards"] == 2
    assert cluster["pairs"] == 2
    for name in ("cold_mix", "hot_stream"):
        regime = cluster[name]
        assert regime["requests_per_pass"] > 0
        for side in ("service", "cluster"):
            runs = regime[side]["runs"]
            assert len(runs) == 2 and min(runs) > 0
            assert regime[side]["q1"] <= regime[side]["median"] <= regime[side]["q3"]
        assert regime["cluster_vs_service"] == (
            regime["cluster"]["median"] / regime["service"]["median"]
        )
    # the decision is derived from the medians, never asserted
    assert cluster["cluster_wins_cold_mix"] == (
        cluster["cold_mix"]["cluster"]["median"]
        >= cluster["cold_mix"]["service"]["median"]
    )
