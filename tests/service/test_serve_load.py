"""End-to-end run of the runner's ``service`` suite (slow: builds a
snowflake catalog and overloads a service)."""

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
