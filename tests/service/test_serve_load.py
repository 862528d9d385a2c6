"""End-to-end run of the runner's ``service`` suite (slow: builds a
snowflake catalog, overloads a service, spawns shard processes)."""

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
        clients=4,
        workers=1,
        shards=2,
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


def test_cluster_block_reports_honest_cores(block):
    cluster = block["cluster"]
    assert cluster["cores"] >= 1
    assert cluster["single_shard"]["shards"] == 1
    assert cluster["sharded"]["shards"] == 2
    assert cluster["sharded"]["requests"] == 60
    assert cluster["speedup_vs_single_shard"] > 0
    # honest reporting: the flag is derived, not asserted — on a 1-core
    # host the speedup is expected to hover near 1x and core_limited
    # tells the reader why
    assert cluster["core_limited"] == (cluster["cores"] < 2)
