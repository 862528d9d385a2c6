"""Crash-safe catalog storage: atomic writes, per-SIT checksums, and
torn-write quarantine, tested by cutting and flipping the real file."""

from __future__ import annotations

import json
import os

import pytest

from repro.catalog import StatisticsCatalog
from repro.stats.io import (
    CatalogDocument,
    PoolFormatError,
    atomic_write_text,
    load_document,
    load_pool,
    loads_document,
    save_document,
    save_pool,
)


@pytest.fixture()
def pool_path(tmp_path, two_table_pool):
    path = tmp_path / "pool.json"
    save_pool(two_table_pool, path)
    return path


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "file.json"
        atomic_write_text(path, "first")
        assert path.read_text() == "first"
        atomic_write_text(path, "second")
        assert path.read_text() == "second"

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "file.json"
        atomic_write_text(path, "content")
        assert os.listdir(tmp_path) == ["file.json"]

    def test_failure_leaves_previous_file_intact(self, tmp_path, monkeypatch):
        """A save whose rename fails must not touch the existing file,
        and leaves no temp file behind — the atomicity half of crash
        safety."""
        path = tmp_path / "pool.json"
        atomic_write_text(path, "previous generation")

        def failing_replace(source, target):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            save_document(CatalogDocument(), path)
        monkeypatch.undo()
        assert path.read_text() == "previous generation"
        assert os.listdir(tmp_path) == ["pool.json"]


class TestChecksums:
    def test_records_carry_checksums(self, pool_path):
        payload = json.loads(pool_path.read_text())
        assert payload["sits"]
        assert all("checksum" in entry for entry in payload["sits"])

    def test_flipped_bit_fails_strict_load(self, pool_path, two_table_pool):
        payload = json.loads(pool_path.read_text())
        payload["sits"][0]["diff"] = payload["sits"][0]["diff"] + 1.0
        pool_path.write_text(json.dumps(payload))
        with pytest.raises(PoolFormatError, match="checksum"):
            load_pool(pool_path)

    def test_flipped_bit_quarantines_one_record(
        self, pool_path, two_table_pool
    ):
        payload = json.loads(pool_path.read_text())
        payload["sits"][0]["diff"] = payload["sits"][0]["diff"] + 1.0
        pool_path.write_text(json.dumps(payload))
        document = load_document(pool_path, quarantine=True)
        assert len(document.sits) == len(two_table_pool) - 1
        assert len(document.quarantined) == 1
        assert "checksum" in document.quarantined[0]["reason"]
        assert document.quarantined[0]["index"] == 0

    def test_records_without_checksum_are_quarantined(self, pool_path):
        """A record with no checksum cannot be verified, so a crash-safe
        load skips it like a corrupt one."""
        payload = json.loads(pool_path.read_text())
        del payload["sits"][0]["checksum"]
        pool_path.write_text(json.dumps(payload))
        document = load_document(pool_path, quarantine=True)
        assert len(document.sits) == len(payload["sits"]) - 1
        assert document.quarantined == [
            {"index": 0, "reason": "SIT record has no checksum"}
        ]


class TestTornWrites:
    """The issue's regression: truncate a save mid-byte; loading must
    quarantine, not crash."""

    def truncate(self, path, fraction: float) -> None:
        data = path.read_bytes()
        path.write_bytes(data[: int(len(data) * fraction)])

    def test_strict_load_raises_typed_error(self, pool_path):
        self.truncate(pool_path, 0.6)
        with pytest.raises(PoolFormatError):
            load_pool(pool_path)

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75, 0.95])
    def test_quarantine_load_salvages_complete_records(
        self, pool_path, two_table_pool, fraction
    ):
        self.truncate(pool_path, fraction)
        document = load_document(pool_path, quarantine=True)
        # never crashes; salvages a prefix of the records and reports
        # the torn tail
        assert 0 <= len(document.sits) < len(two_table_pool)
        assert document.quarantined
        # salvaged SITs are bit-identical to their originals
        originals = {str(s): s for s in two_table_pool}
        for sit in document.sits:
            assert str(sit) in originals

    def test_catalog_load_quarantines_by_default(
        self, pool_path, two_table_db
    ):
        self.truncate(pool_path, 0.6)
        catalog = StatisticsCatalog.load(pool_path, database=two_table_db)
        assert catalog.quarantined
        assert (
            catalog.metrics.counter("catalog.quarantined_sits").value
            == len(catalog.quarantined)
        )
        # the surviving statistics still serve estimates
        assert len(catalog) >= 0

    def test_catalog_load_strict_opt_out(self, pool_path, two_table_db):
        self.truncate(pool_path, 0.6)
        with pytest.raises(PoolFormatError):
            StatisticsCatalog.load(
                pool_path, database=two_table_db, quarantine=False
            )

    def test_empty_file_quarantines_to_empty_document(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        document = loads_document("", quarantine=True)
        assert document.sits == []
        assert document.quarantined
