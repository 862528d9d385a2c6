"""Tests for SIT pool / catalog-document serialization (v2 + v1 migration)."""

import json
import math

import numpy as np
import pytest

from repro.estimators import make_gs_diff
from repro.core.predicates import Attribute, FilterPredicate, JoinPredicate
from repro.engine.expressions import Query
from repro.histograms.base import Bucket, Histogram
from repro.stats.io import (
    DEFAULT_SIT_META,
    FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    CatalogDocument,
    PoolFormatError,
    decode_sit,
    dumps_document,
    dumps_pool,
    encode_sit,
    load_pool,
    loads_document,
    loads_pool,
    migrate_v1_to_v2,
    save_pool,
)
from repro.stats.pool import SITPool
from repro.stats.sit import SIT

RA = Attribute("R", "a")
RX = Attribute("R", "x")
SY = Attribute("S", "y")


def sample_sit():
    histogram = Histogram(
        [Bucket(0, 10, 100, 10), Bucket(11, 11, 50, 1)], null_count=5
    )
    return SIT(
        RA,
        frozenset(
            {
                JoinPredicate(RX, SY),
                FilterPredicate(SY, -math.inf, 7),
            }
        ),
        histogram,
        diff=0.37,
    )


class TestSITRoundTrip:
    def test_roundtrip_preserves_everything(self):
        original = sample_sit()
        restored = decode_sit(encode_sit(original))
        assert restored.attribute == original.attribute
        assert restored.expression == original.expression
        assert restored.diff == original.diff
        assert restored.histogram.buckets == original.histogram.buckets
        assert restored.histogram.null_count == original.histogram.null_count

    def test_infinity_round_trips(self):
        original = sample_sit()
        restored = decode_sit(encode_sit(original))
        filters = [p for p in restored.expression if not p.is_join]
        assert filters[0].low == -math.inf

    def test_base_sit(self):
        original = SIT(RA, frozenset(), Histogram([Bucket(0, 1, 5, 2)]))
        restored = decode_sit(encode_sit(original))
        assert restored.is_base


class TestPoolRoundTrip:
    def test_dumps_loads(self):
        pool = SITPool([sample_sit(), SIT(SY, frozenset(), Histogram([Bucket(0, 5, 9, 3)]))])
        restored = loads_pool(dumps_pool(pool))
        assert len(restored) == 2
        assert {str(s) for s in restored} == {str(s) for s in pool}

    def test_file_roundtrip(self, tmp_path):
        pool = SITPool([sample_sit()])
        path = tmp_path / "pool.json"
        save_pool(pool, path)
        restored = load_pool(path)
        assert len(restored) == 1
        assert restored.sits[0].diff == 0.37

    def test_restored_pool_estimates_identically(
        self, two_table_db, two_table_pool, two_table_join, two_table_attrs, tmp_path
    ):
        path = tmp_path / "pool.json"
        save_pool(two_table_pool, path)
        restored = load_pool(path)
        query = Query.of(
            two_table_join, FilterPredicate(two_table_attrs["Ra"], 0, 20)
        )
        original_estimate = make_gs_diff(two_table_db, two_table_pool).cardinality(query)
        restored_estimate = make_gs_diff(two_table_db, restored).cardinality(query)
        assert restored_estimate == pytest.approx(original_estimate)

    def test_empty_pool(self):
        assert len(loads_pool(dumps_pool(SITPool()))) == 0


class TestV2Format:
    def test_writer_emits_v2(self):
        payload = json.loads(dumps_pool(SITPool([sample_sit()])))
        assert payload["version"] == FORMAT_VERSION == 2
        assert payload["catalog"] == {
            "catalog_version": 0,
            "table_versions": {},
        }
        assert payload["sits"][0]["meta"] == DEFAULT_SIT_META

    def test_document_roundtrip_preserves_metadata(self):
        document = CatalogDocument(
            sits=[sample_sit()],
            sit_meta=[
                {
                    "built_at": 12.5,
                    "build_seconds": 0.25,
                    "build_method": "sampled",
                    "source_versions": {"R": 3, "S": 1},
                }
            ],
            table_versions={"R": 3, "S": 1},
            catalog_version=7,
        )
        restored = loads_document(dumps_document(document))
        assert restored.catalog_version == 7
        assert restored.table_versions == {"R": 3, "S": 1}
        assert restored.sit_meta[0]["build_method"] == "sampled"
        assert restored.sit_meta[0]["source_versions"] == {"R": 3, "S": 1}
        assert restored.sit_meta[0]["built_at"] == 12.5

    def test_mismatched_meta_length_rejected(self):
        document = CatalogDocument(
            sits=[sample_sit()], sit_meta=[{}, {}]
        )
        with pytest.raises(PoolFormatError, match="parallel"):
            dumps_document(document)


class TestV1Migration:
    def v1_payload(self):
        return {
            "version": 1,
            "sits": [encode_sit(sample_sit())],
        }

    def test_v1_loads_through_migration(self):
        restored = loads_pool(json.dumps(self.v1_payload()))
        assert len(restored) == 1
        assert restored.sits[0].diff == 0.37

    def test_migration_synthesizes_conservative_metadata(self):
        migrated = migrate_v1_to_v2(self.v1_payload())
        assert migrated["version"] == 2
        assert migrated["catalog"] == {
            "catalog_version": 0,
            "table_versions": {},
        }
        assert migrated["sits"][0]["meta"] == DEFAULT_SIT_META
        document = loads_document(json.dumps(migrated))
        assert document.sit_meta[0] == DEFAULT_SIT_META

    def test_migration_rejects_non_v1(self):
        with pytest.raises(PoolFormatError, match="version-1"):
            migrate_v1_to_v2({"version": 2, "sits": []})


class TestFormatErrors:
    def test_not_json(self):
        with pytest.raises(PoolFormatError):
            loads_pool("{nope")

    def test_wrong_top_level(self):
        with pytest.raises(PoolFormatError):
            loads_pool("[1, 2]")

    def test_unknown_version_names_supported_versions(self):
        with pytest.raises(PoolFormatError) as excinfo:
            loads_pool('{"version": 99, "sits": []}')
        message = str(excinfo.value)
        assert "99" in message
        for version in SUPPORTED_VERSIONS:
            assert str(version) in message

    def test_bad_meta_payload(self):
        payload = {
            "version": 2,
            "catalog": {"catalog_version": 0, "table_versions": {}},
            "sits": [
                {
                    **encode_sit(sample_sit()),
                    "meta": {"source_versions": {"R": "not-a-number"}},
                }
            ],
        }
        with pytest.raises(PoolFormatError, match="meta"):
            loads_document(json.dumps(payload))

    def test_bad_predicate_kind(self):
        with pytest.raises(PoolFormatError):
            decode_sit(
                {
                    "attribute": {"table": "R", "column": "a"},
                    "expression": [{"kind": "mystery"}],
                    "histogram": {"buckets": []},
                }
            )

    def test_missing_histogram(self):
        with pytest.raises(PoolFormatError):
            decode_sit({"attribute": {"table": "R", "column": "a"}})

    def test_bad_bucket_shape(self):
        with pytest.raises(PoolFormatError):
            decode_sit(
                {
                    "attribute": {"table": "R", "column": "a"},
                    "expression": [],
                    "histogram": {"buckets": [[1, 2]]},
                }
            )


# ----------------------------------------------------------------------
# Bucket columns: loaded without Bucket objects, checked on whole columns
# ----------------------------------------------------------------------
def bucket_decode(data: dict) -> Histogram:
    """The loader as it was written over ``Bucket`` objects: the
    reference for what loads, what fails and which floats come out."""
    buckets = [
        Bucket(
            math.inf if low == "inf" else -math.inf if low == "-inf" else float(low),
            math.inf if high == "inf" else -math.inf if high == "-inf" else float(high),
            float(frequency),
            float(distinct),
        )
        for low, high, frequency, distinct in data["buckets"]
    ]
    return Histogram(buckets, null_count=float(data.get("null_count", 0.0)))


#: payloads every loader must refuse, one per defect
MALFORMED_BUCKETS = {
    "low above high": [[0, 4, 10, 2], [9, 5, 10, 2]],
    "negative frequency": [[0, 4, -1, 2]],
    "negative distinct": [[0, 4, 10, -2]],
    "unordered": [[5, 9, 10, 2], [0, 4, 10, 2]],
    "overlapping": [[0, 5, 1, 1], [3, 8, 1, 1]],
    "three values": [[0, 4, 10]],
    "five values": [[0, 4, 10, 2, 7]],
    "ragged": [[0, 4, 10, 2], [5, 9, 10]],
    "a word": [["zero", 4, 10, 2]],
    "null": [[0, None, 10, 2]],
    "an object": [[0, 4, {"n": 10}, 2]],
    "a nested list": [[0, 4, 10, [2]]],
    "not a list": 7,
    "an integer no float holds": [[0, 4, 10**400, 2]],
}

#: payloads every loader must accept, with the same floats
WELL_FORMED_BUCKETS = {
    "empty": [],
    "infinite ends": [["-inf", -1, 3, 1], [0, 0, 2, 1], [1, "inf", 4.5, 2]],
    "touching": [[0, 5, 1.25, 2], [5, 5, 3, 1], [5, 9, 0, 0]],
    "numeric strings and booleans": [["1.5", "2", 3, True]],
    "negative zero": [[-0.0, 0.0, 1, 1]],
}


def payload_with_buckets(buckets) -> dict:
    """A SIT record whose histogram holds ``buckets`` (no checksum, so
    the histogram decode is what judges it)."""
    record = encode_sit(sample_sit())
    del record["checksum"]
    record["histogram"] = {"null_count": 2.0, "buckets": buckets}
    return record


class TestBucketColumns:
    @pytest.mark.parametrize("case", sorted(MALFORMED_BUCKETS))
    def test_malformed_buckets_fail_typed(self, case):
        record = payload_with_buckets(MALFORMED_BUCKETS[case])
        with pytest.raises(PoolFormatError, match="bad histogram payload"):
            decode_sit(record)
        with pytest.raises((ValueError, TypeError, OverflowError)):
            bucket_decode(record["histogram"])  # refused before, too

    @pytest.mark.parametrize("case", sorted(MALFORMED_BUCKETS))
    def test_malformed_buckets_are_quarantined(self, case):
        good = encode_sit(sample_sit())
        payload = {
            "version": 2,
            "catalog": {"catalog_version": 0, "table_versions": {}},
            "sits": [good, payload_with_buckets(MALFORMED_BUCKETS[case]), good],
        }
        document = loads_document(json.dumps(payload), quarantine=True)
        assert len(document.sits) == 2
        assert [note["index"] for note in document.quarantined] == [1]
        assert "bad histogram payload" in document.quarantined[0]["reason"]
        with pytest.raises(PoolFormatError):
            loads_document(json.dumps(payload))

    @pytest.mark.parametrize("case", sorted(WELL_FORMED_BUCKETS))
    def test_well_formed_buckets_load_the_same_floats(self, case, bucket_births):
        record = payload_with_buckets(WELL_FORMED_BUCKETS[case])
        del bucket_births[:]  # the template SIT's
        loaded = decode_sit(json.loads(json.dumps(record))).histogram
        assert not bucket_births and not hasattr(loaded, "__dict__")
        reference = bucket_decode(record["histogram"])
        for got, expected in zip(loaded.bucket_arrays(), reference.bucket_arrays()):
            assert got.tobytes() == expected.tobytes()
        assert loaded.frequency == reference.frequency
        assert loaded.total == reference.total
        assert loaded.buckets == reference.buckets

    def test_loaded_estimates_are_bit_identical(self, two_table_pool, bucket_births):
        """Over a whole pool: every range, distinct and equality estimate
        of a loaded histogram is the Bucket-built original's, to the bit —
        and neither the save nor the load nor the walks build a Bucket."""
        restored = loads_pool(dumps_pool(two_table_pool))
        for original, loaded in zip(two_table_pool, restored):
            before, after = original.histogram, loaded.histogram
            edges = sorted({*before.bucket_arrays()[0].tolist(), *before.bucket_arrays()[1].tolist()})
            probes = [-math.inf, *edges, *(e + 0.5 for e in edges), math.inf]
            for low in probes:
                for high in probes:
                    assert after.estimate_range_selectivity(low, high) == (
                        before.estimate_range_selectivity(low, high)
                    )
                    assert after.estimate_range_distinct(low, high) == (
                        before.estimate_range_distinct(low, high)
                    )
                assert after.estimate_equality_count(low) == before.estimate_equality_count(low)
            assert not hasattr(after, "__dict__")
        assert not bucket_births

    def test_columns_are_contiguous_float64(self):
        loaded = decode_sit(encode_sit(sample_sit())).histogram
        for column in loaded.bucket_arrays():
            assert column.dtype == np.float64 and column.flags.c_contiguous


def test_expression_codec_roundtrip(two_table_attrs):
    """The round trip of one predicate is exact, infinities included, so
    a decoded SIT expression looks up the same pool entries."""
    from repro.stats.io import decode_predicate, encode_predicate

    predicate = FilterPredicate(two_table_attrs["Ra"], 1.5, float("inf"))
    assert decode_predicate(encode_predicate(predicate)) == predicate
